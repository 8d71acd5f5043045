#include "store/result_store.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "io/env.h"
#include "obs/metrics.h"
#include "store/fingerprint.h"
#include "store/manifest.h"
#include "store/record_frame.h"

namespace fs = std::filesystem;

namespace falvolt::store {

namespace {

void require_fingerprint(const std::string& fp) {
  if (!is_fingerprint(fp)) {
    throw std::invalid_argument("LocalDirStore: malformed fingerprint '" + fp +
                                "'");
  }
}

}  // namespace

bool store_exists(const std::string& root) {
  std::error_code ec;
  if (root.empty()) return false;
  return fs::is_directory(fs::path(root) / "objects", ec);
}

InProgressGuard::InProgressGuard(const std::string& root) {
  const std::string dir = (fs::path(root) / "tmp").string();
  if (!io::env().mkdirs(dir)) return;  // advisory: never fail the sweep
  std::string path =
      (fs::path(dir) / ("inprogress." + std::to_string(::getpid()))).string();
  if (io::env().write_file(path, std::to_string(::getpid()) + "\n")) {
    path_ = std::move(path);
  }
}

InProgressGuard::~InProgressGuard() {
  if (!path_.empty()) io::env().unlink_file(path_);
}

std::vector<int> live_inprogress_pids(const std::string& root) {
  std::vector<int> out;
  std::error_code ec;
  const fs::path dir = fs::path(root) / "tmp";
  constexpr const char* kPrefix = "inprogress.";
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind(kPrefix, 0) != 0) continue;
    const std::string digits = name.substr(std::strlen(kPrefix));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const int pid = std::atoi(digits.c_str());
    if (pid <= 0 || pid == ::getpid()) continue;
    // Signal 0 probes existence without delivering anything; EPERM
    // still means "exists" (someone else's process).
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM) {
      out.push_back(pid);
    } else {
      // Crash residue from a SIGKILLed fleet — reap it so one dead run
      // never wedges every future merge.
      io::env().unlink_file(it->path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

LocalDirStore::LocalDirStore(std::string root, bool create)
    : root_(std::move(root)), writable_(create) {
  if (root_.empty()) {
    throw std::invalid_argument("LocalDirStore: empty root directory");
  }
  if (!create) return;
  const bool ok = io::env().mkdirs((fs::path(root_) / "objects").string()) &&
                  io::env().mkdirs((fs::path(root_) / "manifests").string()) &&
                  io::env().mkdirs((fs::path(root_) / "tmp").string());
  if (!ok) {
    throw std::runtime_error("LocalDirStore: cannot create " + root_);
  }
}

std::string LocalDirStore::describe() const { return "dir:" + root_; }

std::string LocalDirStore::object_path(const std::string& fingerprint) const {
  require_fingerprint(fingerprint);
  return (fs::path(root_) / "objects" / fingerprint.substr(0, 2) /
          (fingerprint + ".rec"))
      .string();
}

bool LocalDirStore::contains(const std::string& fingerprint) const {
  std::error_code ec;
  return fs::exists(object_path(fingerprint), ec);
}

void LocalDirStore::put(const std::string& fingerprint,
                        const std::string& payload) {
  const std::string final_path = object_path(fingerprint);
  if (!writable_) {
    throw std::logic_error("LocalDirStore: put into read-only store " +
                           describe());
  }
  if (!io::env().mkdirs(fs::path(final_path).parent_path().string())) {
    throw std::runtime_error("LocalDirStore: cannot create shard dir for " +
                             fingerprint);
  }
  io::atomic_publish((fs::path(root_) / "tmp").string(), "rec", final_path,
                     frame_record(payload));
  static obs::Counter& puts = obs::counter("store.local.put");
  static obs::Counter& put_bytes = obs::counter("store.local.put_bytes");
  puts.add(1);
  put_bytes.add(payload.size());
}

std::optional<std::string> LocalDirStore::get(
    const std::string& fingerprint) const {
  // Telemetry (observation only — never changes what get returns):
  // hit/miss for the read chain, degraded for a record file that EXISTS
  // but fails frame validation — the population that silently turns a
  // warm run into a recompute, which is exactly what fleet operators
  // need surfaced.
  static obs::Counter& hits = obs::counter("store.local.hit");
  static obs::Counter& misses = obs::counter("store.local.miss");
  static obs::Counter& degraded = obs::counter("store.local.degraded");
  static obs::Counter& get_bytes = obs::counter("store.local.get_bytes");
  const std::string path = object_path(fingerprint);
  std::optional<std::string> bytes = io::env().read_file(path);
  if (!bytes) {
    // Distinguish "no record" from "record exists but cannot be read":
    // the first is a cold miss, the second counts as degraded damage.
    if (io::env().file_size(path)) {
      degraded.add(1);
    } else {
      misses.add(1);
    }
    return std::nullopt;
  }
  std::optional<std::string> payload = unframe_record(*bytes);
  if (!payload) {
    degraded.add(1);
    return std::nullopt;
  }
  hits.add(1);
  get_bytes.add(payload->size());
  return payload;
}

std::vector<std::string> LocalDirStore::fingerprints() const {
  std::vector<std::string> out;
  const fs::path objects = fs::path(root_) / "objects";
  std::error_code ec;
  for (fs::recursive_directory_iterator it(objects, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path p = it->path();
    if (p.extension() != ".rec") continue;
    const std::string fp = p.stem().string();
    if (is_fingerprint(fp)) out.push_back(fp);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void LocalDirStore::put_manifest(const Manifest& m) {
  if (!writable_) {
    throw std::logic_error("LocalDirStore: put_manifest into read-only store " +
                           describe());
  }
  write_manifest(*this, m);
}

std::vector<Manifest> LocalDirStore::manifests(const std::string& bench) const {
  std::vector<Manifest> out;
  for (const std::string& path : list_manifests(*this, bench)) {
    if (std::optional<Manifest> m = read_manifest(path)) {
      out.push_back(std::move(*m));
    }
  }
  return out;
}

}  // namespace falvolt::store
