#include "core/experiment.h"

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/bytes.h"
#include "common/env.h"
#include "compute/thread_pool.h"
#include "data/synthetic_dvs_gesture.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_nmnist.h"
#include "io/env.h"
#include "snn/optimizer.h"
#include "snn/trainer.h"

namespace falvolt::core {

const char* dataset_name(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kMnist:
      return "MNIST";
    case DatasetKind::kNMnist:
      return "N-MNIST";
    case DatasetKind::kDvsGesture:
      return "DVS128-Gesture";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kMagic = 0x46564c54;  // "FVLT"

data::DatasetSplit build_data(DatasetKind kind, bool fast,
                              std::uint64_t seed) {
  switch (kind) {
    case DatasetKind::kMnist: {
      data::SyntheticMnistConfig c;
      c.seed = seed;
      if (fast) {
        c.train_size = 256;
        c.test_size = 128;
      }
      return data::make_synthetic_mnist(c);
    }
    case DatasetKind::kNMnist: {
      data::SyntheticNMnistConfig c;
      c.seed = seed + 1;
      if (fast) {
        c.train_size = 256;
        c.test_size = 128;
      }
      return data::make_synthetic_nmnist(c);
    }
    case DatasetKind::kDvsGesture: {
      data::SyntheticDvsGestureConfig c;
      c.seed = seed + 2;
      if (fast) {
        c.train_size = 220;
        c.test_size = 110;
      }
      return data::make_synthetic_dvs_gesture(c);
    }
  }
  throw std::logic_error("build_data: bad kind");
}

int baseline_epochs(DatasetKind kind, bool fast) {
  switch (kind) {
    case DatasetKind::kMnist:
      return fast ? 10 : 20;
    case DatasetKind::kNMnist:
      return fast ? 12 : 24;
    case DatasetKind::kDvsGesture:
      return fast ? 14 : 28;
  }
  return 20;
}

// Learning rate used for both the baseline training and (by default) the
// mitigation retraining of the scaled-down models.
constexpr double kBaselineLr = 2e-2;

}  // namespace

snn::Network build_network(DatasetKind kind, const data::Dataset& train,
                           std::uint64_t seed) {
  snn::ZooConfig zc;
  zc.seed = seed;
  switch (kind) {
    case DatasetKind::kMnist:
    case DatasetKind::kNMnist:
      return snn::make_digit_classifier(dataset_name(kind), train.channels(),
                                        train.height(), train.num_classes(),
                                        zc);
    case DatasetKind::kDvsGesture:
      return snn::make_gesture_classifier(dataset_name(kind),
                                          train.channels(), train.height(),
                                          train.num_classes(), zc);
  }
  throw std::logic_error("build_network: bad kind");
}

std::string resolve_cache_dir(const WorkloadOptions& opts) {
  // Three cases, each honored: the sentinel defers to the environment
  // (which may itself disable caching with an empty value), an explicit
  // empty string disables caching, and any other value is used verbatim.
  if (opts.cache_dir != kDefaultCacheDir) return opts.cache_dir;
  return common::env_or("FALVOLT_CACHE_DIR", "falvolt_cache");
}

std::string workload_id(DatasetKind kind, const WorkloadOptions& opts) {
  return std::string(dataset_name(kind)) + "/fast=" +
         (opts.fast ? "1" : "0") + "/seed=" + std::to_string(opts.seed);
}

std::string baseline_cache_file(const std::string& cache_dir,
                                DatasetKind kind, bool fast,
                                std::uint64_t seed) {
  return cache_dir + "/baseline_" + dataset_name(kind) + "_" +
         (fast ? "fast" : "full") + "_seed" + std::to_string(seed) + ".bin";
}

int default_retrain_epochs(DatasetKind kind, bool fast) {
  switch (kind) {
    case DatasetKind::kMnist:
    case DatasetKind::kNMnist:
      return fast ? 4 : 8;
    case DatasetKind::kDvsGesture:
      return fast ? 5 : 10;
  }
  return 8;
}

void save_params(snn::Network& net, const std::string& path) {
  const auto params = net.params();
  std::string bytes;
  common::put_u32(bytes, kMagic);
  common::put_u32(bytes, static_cast<std::uint32_t>(params.size()));
  for (const snn::Param* p : params) {
    common::put_str(bytes, p->name);
    common::put_u32(bytes, static_cast<std::uint32_t>(p->value.size()));
    bytes.append(reinterpret_cast<const char*>(p->value.data()),
                 p->value.size() * sizeof(float));
  }
  // Staged next to the final file and renamed over it: concurrent
  // writers of one cache entry (fleet workers that both missed it) each
  // publish a complete file, and a crash never leaves a partial one
  // under the final name. The format carries no checksum, so a damaged
  // write (torn or bit-flipped under --faults) must never publish:
  // publish_file drops it, and the next run retrains instead.
  io::publish_file(path, bytes);
}

bool load_params(snn::Network& net, const std::string& path) {
  const std::optional<std::string> bytes = io::env().read_file(path);
  if (!bytes) return false;
  // ByteReader validates every length field against the bytes actually
  // left BEFORE it is trusted, so a corrupt or truncated cache entry
  // degrades to "no cache" (caller retrains and rewrites it) instead of
  // throwing or over-reading from a damaged length word.
  common::ByteReader in{*bytes};
  std::uint32_t magic = 0;
  std::uint32_t count = 0;
  if (!in.u32(magic) || !in.u32(count) || magic != kMagic) return false;
  const auto params = net.params();
  if (count != params.size()) {
    throw std::runtime_error("load_params: parameter count mismatch in " +
                             path);
  }
  // Validate the whole file first and commit only after it passes — a
  // failure halfway must not leave the network partially overwritten
  // (the caller retrains from the current initialization).
  std::vector<std::size_t> payload_at;
  payload_at.reserve(params.size());
  for (const snn::Param* p : params) {
    std::string name;
    std::uint32_t size = 0;
    if (!in.str(name) || !in.u32(size) ||
        std::uint64_t{size} * sizeof(float) > in.remaining()) {
      return false;
    }
    if (name != p->name || size != p->value.size()) {
      throw std::runtime_error("load_params: parameter mismatch at " +
                               p->name + " in " + path);
    }
    payload_at.push_back(in.pos);
    in.pos += std::size_t{size} * sizeof(float);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), bytes->data() + payload_at[i],
                params[i]->value.size() * sizeof(float));
  }
  return true;
}

Workload prepare_workload(DatasetKind kind, const WorkloadOptions& opts) {
  if (opts.threads > 0) compute::set_global_threads(opts.threads);
  Workload w{kind, build_data(kind, opts.fast, opts.seed),
             snn::Network(), 0.0, 0};
  w.net = build_network(kind, w.data.train, opts.seed);
  w.baseline_epochs = baseline_epochs(kind, opts.fast);

  const std::string cache_dir = resolve_cache_dir(opts);
  std::string cache_file;
  if (!cache_dir.empty()) {
    if (!io::env().mkdirs(cache_dir)) {
      throw std::runtime_error("prepare_workload: cannot create cache dir " +
                               cache_dir);
    }
    cache_file = baseline_cache_file(cache_dir, kind, opts.fast, opts.seed);
  }

  bool loaded = false;
  if (!cache_file.empty() && !opts.ignore_cache) {
    try {
      loaded = load_params(w.net, cache_file);
    } catch (const std::runtime_error&) {
      // A cache entry that parses but disagrees with the network (rotted
      // count/name bytes, or a stale file from an older architecture) is
      // as useless as a truncated one: retrain and rewrite it. The throw
      // stays in load_params for callers loading explicit checkpoints.
      loaded = false;
    }
  }
  if (!loaded) {
    snn::Adam opt(kBaselineLr);
    snn::TrainConfig tc;
    tc.epochs = w.baseline_epochs;
    tc.batch_size = 32;
    tc.shuffle_seed = opts.seed;
    tc.eval_each_epoch = false;
    // Step decay at 2/3 of training stabilizes the final epochs.
    const int decay_epoch = (2 * w.baseline_epochs) / 3;
    tc.on_epoch = [&opt, decay_epoch](const snn::EpochStats& s) {
      if (s.epoch + 1 == decay_epoch) opt.set_lr(kBaselineLr / 4.0);
    };
    snn::Trainer trainer(w.net, opt, w.data.train, &w.data.test, tc);
    trainer.run();
    if (!cache_file.empty()) save_params(w.net, cache_file);
  }
  w.baseline_accuracy = snn::evaluate(w.net, w.data.test);
  return w;
}

}  // namespace falvolt::core
