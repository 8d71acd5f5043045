#pragma once
// BPTT training loop and evaluation for spiking networks.

#include <functional>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "snn/network.h"
#include "snn/optimizer.h"

namespace falvolt::snn {

/// Per-epoch telemetry.
struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double test_accuracy = 0.0;  ///< percent; NaN if eval disabled
  double seconds = 0.0;
};

/// Training configuration.
struct TrainConfig {
  int epochs = 10;
  int batch_size = 32;
  std::uint64_t shuffle_seed = 1;
  bool eval_each_epoch = true;
  /// Called after each optimizer epoch, before evaluation. FalVolt uses
  /// this to re-zero the weights mapped to faulty PEs (Algorithm 1 line 13).
  std::function<void(Network&)> post_epoch;
  /// Observation hook (convergence curves).
  std::function<void(const EpochStats&)> on_epoch;
  /// Name of the trace span around each epoch (training, post_epoch and
  /// the per-epoch evaluation); fault-aware retraining uses
  /// "retrain.epoch". A string literal.
  const char* epoch_span = "train.epoch";
};

/// Runs BPTT epochs over a training set.
class Trainer {
 public:
  Trainer(Network& net, Optimizer& opt, const data::Dataset& train,
          const data::Dataset* test, TrainConfig cfg);

  /// Train for cfg.epochs; returns per-epoch stats.
  std::vector<EpochStats> run();

  /// One epoch (shuffled mini-batches); returns the mean batch loss.
  double run_epoch();

 private:
  Network& net_;
  Optimizer& opt_;
  const data::Dataset& train_;
  const data::Dataset* test_;
  TrainConfig cfg_;
  common::Rng shuffle_rng_;
  int epoch_index_ = 0;
};

/// Assemble per-time-step batch inputs: element t is [N, C, H, W] holding
/// frame t of each selected sample.
std::vector<tensor::Tensor> make_batch(const data::Dataset& ds,
                                       const std::vector<int>& indices);

/// Labels of the selected samples.
std::vector<int> batch_labels(const data::Dataset& ds,
                              const std::vector<int>& indices);

/// Forward a batch through the net in eval mode; returns the mean firing
/// rate of the output layer, shape [N, classes].
tensor::Tensor infer_rates(Network& net, const data::Dataset& ds,
                           const std::vector<int>& indices);

/// A prebuilt whole-set evaluation batch: one input tensor per time step
/// covering every sample, plus the labels. Build once per dataset and
/// reuse across evaluations — assembling the step tensors is then paid
/// once instead of per evaluation, and evaluate(net, batch) runs ONE
/// forward per time step for all samples (batched eval mode), so a
/// plugged GEMM engine resolves its per-layer fault plan once per step
/// rather than once per 64-sample chunk.
struct EvalBatch {
  std::vector<tensor::Tensor> steps;  ///< [T] tensors of shape [N,C,H,W]
  std::vector<int> labels;            ///< N labels, sample order
};

/// Assemble the whole dataset into one EvalBatch.
EvalBatch make_eval_batch(const data::Dataset& ds);

/// Top-1 accuracy (percent) over a prebuilt batch. Bit-identical to
/// evaluate(net, ds, any batch_size) over the same samples.
double evaluate(Network& net, const EvalBatch& batch);

/// Top-1 accuracy (percent) of the network on a dataset. batch_size <= 0
/// evaluates the whole set as a single batch (batched eval mode).
double evaluate(Network& net, const data::Dataset& ds, int batch_size = 64);

}  // namespace falvolt::snn
