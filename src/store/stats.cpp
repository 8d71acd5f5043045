#include "store/stats.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "obs/metrics.h"
#include "store/manifest.h"

namespace fs = std::filesystem;

namespace falvolt::store {

namespace {

std::string human_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= 1024ull * 1024ull) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024ull) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace

StoreStats collect_store_stats(
    const LocalDirStore& rs,
    const std::function<std::optional<std::uint32_t>(const std::string&)>&
        epoch_of) {
  StoreStats stats;

  // On-disk size of every record file (unvalidated — disk usage is a
  // property of the file, not of its content).
  std::map<std::string, std::uint64_t> record_bytes;
  for (const std::string& fp : rs.fingerprints()) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(rs.object_path(fp), ec);
    const std::uint64_t bytes = ec ? 0 : static_cast<std::uint64_t>(size);
    record_bytes.emplace(fp, bytes);
    stats.total_bytes += bytes;
  }
  stats.total_records = record_bytes.size();

  // Charge each record to the first manifest that references it; count
  // every further reference as deduplicated storage.
  std::set<std::string> charged;
  for (const std::string& path : list_manifests(rs)) {
    const std::optional<Manifest> m = read_manifest(path);
    if (!m) continue;
    StoreStats::BenchUsage* usage = nullptr;
    for (StoreStats::BenchUsage& b : stats.benches) {
      if (b.bench == m->bench) usage = &b;
    }
    if (!usage) {
      stats.benches.push_back(StoreStats::BenchUsage{m->bench, 0, 0});
      usage = &stats.benches.back();
    }
    for (const auto& [fp, key] : m->entries) {
      (void)key;
      const auto it = record_bytes.find(fp);
      if (it == record_bytes.end()) continue;  // cell not computed yet
      if (!charged.insert(fp).second) {
        ++stats.deduplicated_refs;
        continue;
      }
      usage->records += 1;
      usage->bytes += it->second;
    }
  }
  StoreStats::BenchUsage unreferenced{"(unreferenced)", 0, 0};
  for (const auto& [fp, bytes] : record_bytes) {
    if (!charged.count(fp)) {
      unreferenced.records += 1;
      unreferenced.bytes += bytes;
    }
  }
  if (unreferenced.records > 0) stats.benches.push_back(unreferenced);

  // Epoch histogram from the record payloads.
  for (const auto& [fp, bytes] : record_bytes) {
    (void)bytes;
    const std::optional<std::string> payload = rs.get(fp);
    if (!payload) {
      ++stats.unreadable_records;
      continue;
    }
    if (const std::optional<std::uint32_t> epoch = epoch_of(*payload)) {
      ++stats.epoch_histogram[*epoch];
    } else {
      ++stats.stale_payloads;
    }
  }
  return stats;
}

std::string StoreStats::to_text() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "[store] %zu record(s), %s\n",
                total_records, human_bytes(total_bytes).c_str());
  out += line;
  for (const BenchUsage& b : benches) {
    std::snprintf(line, sizeof(line), "[store]   %-24s %6zu record(s) %12s\n",
                  b.bench.c_str(), b.records, human_bytes(b.bytes).c_str());
    out += line;
  }
  if (deduplicated_refs > 0) {
    std::snprintf(line, sizeof(line),
                  "[store]   %zu manifest reference(s) deduplicated by "
                  "content addressing\n",
                  deduplicated_refs);
    out += line;
  }
  for (const auto& [epoch, count] : epoch_histogram) {
    std::snprintf(line, sizeof(line),
                  "[store]   epoch %u: %zu record(s)\n", epoch, count);
    out += line;
  }
  if (stale_payloads > 0) {
    std::snprintf(line, sizeof(line),
                  "[store]   %zu stale-codec payload(s) (reclaim with "
                  "--prune)\n",
                  stale_payloads);
    out += line;
  }
  if (unreadable_records > 0) {
    std::snprintf(line, sizeof(line),
                  "[store]   %zu unreadable record(s) (reclaim with "
                  "--prune)\n",
                  unreadable_records);
    out += line;
  }
  return out;
}

std::string StoreStats::to_json(int indent) const {
  std::vector<obs::MetricSample> samples;
  const auto add = [&samples](std::string name, std::uint64_t value) {
    samples.push_back(obs::MetricSample{std::move(name), value});
  };
  add("store.total_records", total_records);
  add("store.total_bytes", total_bytes);
  add("store.deduplicated_refs", deduplicated_refs);
  add("store.stale_payloads", stale_payloads);
  add("store.unreadable_records", unreadable_records);
  for (const BenchUsage& b : benches) {
    add("store.bench." + b.bench + ".records", b.records);
    add("store.bench." + b.bench + ".bytes", b.bytes);
  }
  for (const auto& [epoch, count] : epoch_histogram) {
    add("store.epoch." + std::to_string(epoch) + ".records", count);
  }
  return obs::encode_metrics_json(samples, indent);
}

}  // namespace falvolt::store
