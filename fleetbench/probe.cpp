// fleet_probe — per-layer timing probe of the cold-fleet benchmark.
//
// Run after a traced cold sweep_fleet job. It loads the baseline that job
// left in its cache (core::prepare_workload), then times calls into each
// module's public functions on the real network shapes and fault maps:
//
//   data      make_synthetic_* for every dataset of the workload
//   snn       Layer::forward/backward in network order, eval (faulty
//             systolic engine, 32 worst-case faulty PEs on 64x64) and one
//             train minibatch (float engine), each compared with the same
//             pass through Network::rate_forward / forward / backward
//   tensor    im2col on the conv inputs of the eval batch
//   fault     NetworkPruner construction + apply at a 30% fault rate
//   core      evaluate_with_faults; one retraining epoch
//   store     StoreApi::get + decode_scenario_result over the run's stores
//   io        io::atomic_publish of a median-sized record
//
// Every timed call sits in an obs::TraceSpan under its phase span, so the
// Chrome trace written with --trace shows where the probe's time went.
// The probe runs its compute pool at one thread: fleet cells inline their
// GEMMs on the claiming worker, so that is the shape a cell sees.
//
//   fleet_probe --cache <baseline cache> --store <run store>[,<store>...]
//               --datasets mnist,nmnist,dvs --seed 7 --scratch <dir>
//               --out probe.json --trace probe_trace.json

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "compute/thread_pool.h"
#include "core/experiment.h"
#include "core/mitigation.h"
#include "core/retrain.h"
#include "core/sweep.h"
#include "data/synthetic_dvs_gesture.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_nmnist.h"
#include "fault/fault_generator.h"
#include "fault/prune_mask.h"
#include "io/env.h"
#include "obs/trace.h"
#include "snn/batchnorm.h"
#include "snn/conv2d.h"
#include "snn/loss.h"
#include "snn/plif.h"
#include "snn/trainer.h"
#include "store/store_api.h"
#include "systolic/faulty_gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"

using namespace falvolt;

namespace {

constexpr int kEvalSamples = 96;  // fig5b's --eval-samples default
constexpr int kTrainBatch = 32;   // baseline and retrain minibatch
constexpr int kArraySize = 64;    // the benches' default --array-size
constexpr int kFaultyPes = 32;    // a fig5b point: count=32, rep=0
constexpr double kPruneRate = 0.30;
constexpr int kReps = 3;          // timed repetitions; medians reported
constexpr int kPublishReps = 25;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Layer group as the benchmark reports it: matmul layers by name, BN and
// PLIF layers summed, everything else (pool, flatten, dropout) as other.
std::string group_of(snn::Layer& layer) {
  if (dynamic_cast<snn::MatmulLayer*>(&layer)) return layer.name();
  if (dynamic_cast<snn::BatchNorm2d*>(&layer)) return "BN";
  if (dynamic_cast<snn::Plif*>(&layer)) return "PLIF";
  return "other";
}

using Groups = std::map<std::string, double>;

// Median per group over several passes.
Groups median_groups(const std::vector<Groups>& passes) {
  Groups out;
  for (const auto& [name, ms] : passes.front()) {
    (void)ms;
    std::vector<double> v;
    for (const Groups& g : passes) v.push_back(g.at(name));
    out[name] = median(v);
  }
  return out;
}

// Same fast-mode generator configs core::prepare_workload uses.
data::DatasetSplit make_dataset(core::DatasetKind kind, std::uint64_t seed) {
  switch (kind) {
    case core::DatasetKind::kMnist: {
      data::SyntheticMnistConfig c;
      c.seed = seed;
      c.train_size = 256;
      c.test_size = 128;
      return data::make_synthetic_mnist(c);
    }
    case core::DatasetKind::kNMnist: {
      data::SyntheticNMnistConfig c;
      c.seed = seed + 1;
      c.train_size = 256;
      c.test_size = 128;
      return data::make_synthetic_nmnist(c);
    }
    case core::DatasetKind::kDvsGesture: {
      data::SyntheticDvsGestureConfig c;
      c.seed = seed + 2;
      c.train_size = 220;
      c.test_size = 110;
      return data::make_synthetic_dvs_gesture(c);
    }
  }
  throw std::logic_error("make_dataset: bad kind");
}

snn::Network clone(core::Workload& wl, std::uint64_t seed) {
  snn::Network net = core::build_network(wl.kind, wl.data.train, seed);
  net.restore_params(wl.net.snapshot_params());
  return net;
}

// One eval pass calling Layer::forward in network order over all T steps
// through `engine`. Returns per-group ms; `rate` receives the time-mean
// output and `conv_inputs` (when given) every Conv2d input tensor.
Groups eval_layers(snn::Network& net, const snn::EvalBatch& batch,
                   snn::GemmEngine& engine, tensor::Tensor& rate,
                   std::vector<tensor::Tensor>* conv_inputs) {
  obs::TraceSpan pass("bench", "snn.eval.layers");
  Groups ms;
  net.set_gemm_engine(&engine);
  net.reset_state();
  rate = tensor::Tensor();
  for (std::size_t t = 0; t < batch.steps.size(); ++t) {
    tensor::Tensor cur = batch.steps[t];
    for (int i = 0; i < net.num_layers(); ++i) {
      snn::Layer& layer = net.layer(i);
      if (conv_inputs && dynamic_cast<snn::Conv2d*>(&layer)) {
        conv_inputs->push_back(cur);
      }
      common::Timer timer;
      {
        obs::TraceSpan span("bench", "layer." + layer.name() + ".fwd");
        cur = layer.forward(cur, static_cast<int>(t), snn::Mode::kEval);
      }
      ms[group_of(layer)] += timer.seconds() * 1e3;
    }
    if (rate.empty()) {
      rate = std::move(cur);
    } else {
      tensor::add_inplace(rate, cur);
    }
  }
  tensor::scale_inplace(rate, 1.0f / static_cast<float>(batch.steps.size()));
  net.set_gemm_engine(nullptr);
  return ms;
}

struct TrainPass {
  Groups fwd, bwd;
};

// One BPTT minibatch calling Layer::forward over T, then Layer::backward
// over reversed T, exactly as snn::Trainer::run_epoch drives the network.
// With `per_layer` false the same pass goes through Network::forward and
// Network::backward and the totals land under "network".
TrainPass train_pass(snn::Network& net,
                     const std::vector<tensor::Tensor>& steps,
                     const std::vector<int>& labels, bool per_layer) {
  obs::TraceSpan pass("bench",
                      per_layer ? "snn.train.layers" : "snn.train.network");
  TrainPass out;
  const int t_steps = static_cast<int>(steps.size());
  net.reset_state();
  net.zero_grad();
  tensor::Tensor sum;
  for (int t = 0; t < t_steps; ++t) {
    tensor::Tensor cur = steps[static_cast<std::size_t>(t)];
    if (per_layer) {
      for (int i = 0; i < net.num_layers(); ++i) {
        snn::Layer& layer = net.layer(i);
        common::Timer timer;
        {
          obs::TraceSpan span("bench", "layer." + layer.name() + ".fwd");
          cur = layer.forward(cur, t, snn::Mode::kTrain);
        }
        out.fwd[group_of(layer)] += timer.seconds() * 1e3;
      }
    } else {
      common::Timer timer;
      cur = net.forward(cur, t, snn::Mode::kTrain);
      out.fwd["network"] += timer.seconds() * 1e3;
    }
    if (sum.empty()) {
      sum = std::move(cur);
    } else {
      tensor::add_inplace(sum, cur);
    }
  }
  tensor::scale_inplace(sum, 1.0f / static_cast<float>(t_steps));
  tensor::Tensor grad = snn::rate_mse_loss(sum, labels).grad_rate;
  tensor::scale_inplace(grad, 1.0f / static_cast<float>(t_steps));
  for (int t = t_steps - 1; t >= 0; --t) {
    if (per_layer) {
      tensor::Tensor cur = grad;
      for (int i = net.num_layers() - 1; i >= 0; --i) {
        snn::Layer& layer = net.layer(i);
        common::Timer timer;
        {
          obs::TraceSpan span("bench", "layer." + layer.name() + ".bwd");
          cur = layer.backward(cur, t);
        }
        out.bwd[group_of(layer)] += timer.seconds() * 1e3;
      }
    } else {
      common::Timer timer;
      net.backward(grad, t);
      out.bwd["network"] += timer.seconds() * 1e3;
    }
  }
  return out;
}

// Minimal JSON object writer: "key": value pairs in insertion order.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    raw(key, buf);
  }
  void boolean(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
  void groups(const std::string& key, const Groups& g) {
    JsonObject o;
    for (const auto& [name, v] : g) o.num(name, v);
    raw(key, o.str());
  }
  void list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    raw(key, s + "]");
  }
  void raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",\n") + std::string("\"") +
             common::json_escape(key) + "\": " + value;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) try {
  common::CliFlags cli("fleet_probe");
  cli.add_string("cache", "", "baseline cache the cold run left behind");
  cli.add_string("store", "",
                 "comma list of the result stores of the run's cold jobs");
  cli.add_string("datasets", "mnist",
                 "comma list of mnist,nmnist,dvs whose data generation is "
                 "timed; the first one is probed layer by layer");
  cli.add_int("seed", 7, "workload seed the cold run used");
  cli.add_string("scratch", "", "empty directory for publish timing");
  cli.add_string("out", "", "JSON report path");
  cli.add_string("trace", "", "Chrome trace output path ('' = off)");
  if (!cli.parse(argc, argv)) return 0;
  for (const char* required : {"cache", "store", "scratch", "out"}) {
    if (cli.get_string(required).empty()) {
      std::fprintf(stderr, "fleet_probe: --%s is required\n", required);
      return 2;
    }
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::vector<core::DatasetKind> datasets =
      bench::parse_dataset_spec(cli.get_string("datasets"));
  if (datasets.empty()) {
    std::fprintf(stderr, "fleet_probe: --datasets is empty\n");
    return 2;
  }
  if (!cli.get_string("trace").empty()) obs::trace_start(cli.get_string("trace"));
  compute::set_global_threads(1);
  JsonObject report;

  {
    obs::TraceSpan phase("bench", "probe.data");
    double gen_s = 0.0;
    for (const core::DatasetKind kind : datasets) {
      common::Timer timer;
      obs::TraceSpan span("bench", std::string("data.make_synthetic.") +
                                       bench::dataset_flag_token(kind));
      const data::DatasetSplit generated = make_dataset(kind, seed);
      (void)generated;
      gen_s += timer.seconds();
    }
    report.num("data_gen_s", gen_s);
  }

  core::WorkloadOptions opts;
  opts.fast = true;
  opts.seed = seed;
  opts.cache_dir = cli.get_string("cache");
  core::Workload wl = [&] {
    obs::TraceSpan phase("bench", "probe.load_baseline");
    return core::prepare_workload(datasets.front(), opts);
  }();
  report.num("baseline_accuracy", wl.baseline_accuracy);

  systolic::ArrayConfig array;
  array.rows = array.cols = kArraySize;
  const fault::FaultSpec worst = fault::worst_case_spec(array.format.total_bits());
  common::Rng map_rng(2000 + 31 * kFaultyPes);  // fig5b's fault_seed, rep 0
  const fault::FaultMap eval_map = fault::random_fault_map(
      array.rows, array.cols, kFaultyPes, worst, map_rng);
  common::Rng prune_rng(seed);
  const fault::FaultMap prune_map = fault::fault_map_at_rate(
      array.rows, array.cols, kPruneRate, worst, prune_rng);
  const snn::EvalBatch eval_batch =
      snn::make_eval_batch(bench::subset(wl.data.test, kEvalSamples));

  std::vector<tensor::Tensor> conv_inputs;
  {
    obs::TraceSpan phase("bench", "probe.snn.eval");
    snn::Network net = clone(wl, seed);
    std::vector<Groups> layer_passes;
    std::vector<double> network_ms;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      tensor::Tensor by_layer;
      systolic::SystolicGemmEngine e1(
          array, &eval_map, systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
      layer_passes.push_back(eval_layers(net, eval_batch, e1, by_layer,
                                         rep == 0 ? &conv_inputs : nullptr));
      systolic::SystolicGemmEngine e2(
          array, &eval_map, systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
      net.set_gemm_engine(&e2);
      common::Timer timer;
      tensor::Tensor whole;
      {
        obs::TraceSpan span("bench", "snn.eval.rate_forward");
        whole = net.rate_forward(eval_batch.steps);
      }
      network_ms.push_back(timer.seconds() * 1e3);
      net.set_gemm_engine(nullptr);
      identical = identical && whole.shape() == by_layer.shape() &&
                  std::equal(whole.data(), whole.data() + whole.size(),
                             by_layer.data());
    }
    JsonObject eval;
    eval.groups("fwd_ms", median_groups(layer_passes));
    eval.num("network_ms", median(network_ms));
    eval.boolean("identical", identical);
    report.raw("eval", eval.str());
  }

  {
    obs::TraceSpan phase("bench", "probe.snn.train");
    snn::Network net = clone(wl, seed);
    std::vector<int> idx(static_cast<std::size_t>(
        std::min(kTrainBatch, wl.data.train.size())));
    std::iota(idx.begin(), idx.end(), 0);
    const std::vector<tensor::Tensor> steps = snn::make_batch(wl.data.train, idx);
    const std::vector<int> labels = snn::batch_labels(wl.data.train, idx);
    std::vector<Groups> fwd, bwd;
    std::vector<double> net_fwd, net_bwd;
    for (int rep = 0; rep < kReps; ++rep) {
      const TrainPass layers = train_pass(net, steps, labels, true);
      fwd.push_back(layers.fwd);
      bwd.push_back(layers.bwd);
      const TrainPass whole = train_pass(net, steps, labels, false);
      net_fwd.push_back(whole.fwd.at("network"));
      net_bwd.push_back(whole.bwd.at("network"));
    }
    JsonObject train;
    train.groups("fwd_ms", median_groups(fwd));
    train.groups("bwd_ms", median_groups(bwd));
    train.num("network_fwd_ms", median(net_fwd));
    train.num("network_bwd_ms", median(net_bwd));
    report.raw("train", train.str());
  }

  {
    obs::TraceSpan phase("bench", "probe.tensor");
    std::vector<double> ms;
    std::vector<float> cols;
    for (int rep = 0; rep < kReps; ++rep) {
      common::Timer timer;
      obs::TraceSpan span("bench", "tensor.im2col");
      for (const tensor::Tensor& x : conv_inputs) {
        tensor::ConvGeometry g;
        g.in_channels = x.dim(1);
        g.in_h = x.dim(2);
        g.in_w = x.dim(3);
        g.kernel_h = g.kernel_w = 3;  // every zoo conv is 3x3, pad 1
        g.pad = 1;
        const std::size_t sample = static_cast<std::size_t>(
            g.in_channels * g.in_h * g.in_w);
        cols.resize(static_cast<std::size_t>(g.out_pixels() * g.patch_size()));
        for (int n = 0; n < x.dim(0); ++n) {
          tensor::im2col(x.data() + sample * static_cast<std::size_t>(n), g,
                         cols.data());
        }
      }
      ms.push_back(timer.seconds() * 1e3);
    }
    report.num("im2col_ms", median(ms));
  }

  {
    obs::TraceSpan phase("bench", "probe.fault");
    std::vector<double> ms;
    for (int rep = 0; rep < kReps; ++rep) {
      snn::Network net = clone(wl, seed);
      common::Timer timer;
      obs::TraceSpan span("bench", "fault.prune");
      fault::NetworkPruner pruner(net, prune_map);
      pruner.apply(net);
      ms.push_back(timer.seconds() * 1e3);
    }
    report.num("prune_ms", median(ms));
  }

  {
    obs::TraceSpan phase("bench", "probe.core");
    snn::Network net = clone(wl, seed);
    std::vector<double> ms;
    double accuracy = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      common::Timer timer;
      obs::TraceSpan span("bench", "core.evaluate_with_faults");
      accuracy = core::evaluate_with_faults(
          net, eval_batch, array, eval_map,
          systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
      ms.push_back(timer.seconds() * 1e3);
    }
    report.num("faulty_eval_ms", median(ms));
    report.num("faulty_eval_accuracy", accuracy);

    core::MitigationConfig cfg;
    cfg.array = array;
    cfg.retrain_epochs = 1;
    cfg.eval_each_epoch = false;
    snn::Network retrain_net = clone(wl, seed);
    obs::TraceSpan span("bench", "core.run_fault_aware_retraining");
    const core::MitigationResult res = core::run_fault_aware_retraining(
        retrain_net, prune_map, wl.data.train, wl.data.test, cfg, "FalVolt");
    report.num("retrain_epoch_s", res.curve.at(0).seconds);
    core::Scenario eval_cell, retrain_cell;
    retrain_cell.retrain = true;
    retrain_cell.epochs = 1;
    report.num("estimate_retrain_epoch",
               core::scenario_cost_estimate(retrain_cell) /
                   core::scenario_cost_estimate(eval_cell));
  }

  std::string median_record;
  {
    obs::TraceSpan phase("bench", "probe.store");
    std::vector<double> get_us;
    std::vector<std::pair<std::size_t, std::string>> payloads;
    std::string cells = "[";
    const std::string& all = cli.get_string("store");
    std::vector<std::string> specs;
    for (std::size_t pos = 0; pos <= all.size();) {
      const std::size_t comma = std::min(all.find(',', pos), all.size());
      specs.push_back(all.substr(pos, comma - pos));
      pos = comma + 1;
    }
    for (const std::string& spec : specs) {
      const auto store = store::open_store(spec, {}, false);
      for (const std::string& fp : store->fingerprints()) {
        common::Timer timer;
        std::optional<std::string> payload;
        {
          obs::TraceSpan span("bench", "store.get");
          payload = store->get(fp);
        }
        get_us.push_back(timer.seconds() * 1e6);
        core::ScenarioResult res;
        if (!payload || !core::decode_scenario_result(*payload, res)) {
          std::fprintf(stderr, "fleet_probe: record %s is unreadable\n",
                       fp.c_str());
          return 1;
        }
        payloads.emplace_back(payload->size(), *payload);
        JsonObject cell;
        cell.raw("key", "\"" + common::json_escape(res.scenario.key) + "\"");
        cell.num("seconds", res.seconds);
        cell.boolean("retrain", res.scenario.retrain);
        cell.num("estimate", core::scenario_cost_estimate(res.scenario));
        cells += (cells.size() > 1 ? ",\n" : "") + cell.str();
      }
    }
    report.list("store_get_us", get_us);
    report.raw("cells", cells + "]");
    if (payloads.empty()) {
      std::fprintf(stderr, "fleet_probe: store holds no records\n");
      return 1;
    }
    std::sort(payloads.begin(), payloads.end());
    median_record = payloads[payloads.size() / 2].second;
  }

  {
    obs::TraceSpan phase("bench", "probe.io");
    const std::string dir = cli.get_string("scratch");
    std::vector<double> us;
    for (int rep = 0; rep < kPublishReps; ++rep) {
      common::Timer timer;
      obs::TraceSpan span("bench", "io.atomic_publish");
      io::atomic_publish(dir + "/staging", "record",
                         dir + "/record" + std::to_string(rep), median_record);
      us.push_back(timer.seconds() * 1e6);
    }
    report.list("publish_us", us);
    report.num("publish_bytes", static_cast<double>(median_record.size()));
  }

  if (obs::trace_enabled()) obs::trace_stop();
  std::ofstream out(cli.get_string("out"));
  out << report.str() << "\n";
  if (!out) {
    std::fprintf(stderr, "fleet_probe: cannot write %s\n",
                 cli.get_string("out").c_str());
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fleet_probe: %s\n", e.what());
  return 1;
}
