#pragma once
// Shared types of the mitigation pipelines (FaP / FaPIT / FalVolt).

#include <limits>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fault/fault_map.h"
#include "fault/prune_mask.h"
#include "snn/network.h"
#include "snn/trainer.h"
#include "systolic/faulty_gemm.h"
#include "systolic/mapping.h"

namespace falvolt::core {

/// Configuration shared by the retraining-based mitigations.
struct MitigationConfig {
  systolic::ArrayConfig array;
  int retrain_epochs = 8;
  int batch_size = 32;
  double lr = 1e-2;
  /// Learning rate is divided by `lr_decay_factor` after
  /// `lr_decay_fraction` of the epochs (stabilizes the final epochs).
  double lr_decay_factor = 4.0;
  double lr_decay_fraction = 0.6;
  std::uint64_t seed = 11;
  /// true  -> FalVolt: learn a per-layer V_th during retraining;
  /// false -> FaPIT: V_th frozen at `retrain_vth`.
  bool optimize_vth = true;
  /// Initial (FalVolt) or fixed (FaPIT / Fig. 2 sweep) threshold voltage
  /// applied to all hidden spiking layers before retraining.
  float retrain_vth = 1.0f;
  bool eval_each_epoch = true;
};

/// Optimized threshold voltage of one layer (paper Fig. 6).
struct VthEntry {
  std::string layer;
  float vth = 0.0f;
};

/// Outcome of a mitigation run.
struct MitigationResult {
  std::string method;
  /// Accuracy of the unmitigated faulty chip (corrupting PEs); NaN unless
  /// explicitly measured via evaluate_with_faults().
  double faulty_accuracy = std::numeric_limits<double>::quiet_NaN();
  /// Accuracy right after fault-aware pruning, before any retraining
  /// (this *is* the FaP result).
  double pruned_accuracy = 0.0;
  /// Accuracy after the full mitigation (last epoch's weights).
  double final_accuracy = 0.0;
  /// Best test accuracy seen across retraining epochs (the checkpoint a
  /// deployment flow would keep). Equals final_accuracy when per-epoch
  /// evaluation is disabled or for FaP.
  double best_accuracy = 0.0;
  /// Per-epoch convergence curve (empty for FaP).
  std::vector<snn::EpochStats> curve;
  /// Weights pruned per layer.
  std::vector<fault::LayerPruneReport> prune_report;
  /// Final V_th per hidden spiking layer.
  std::vector<VthEntry> vth_per_layer;
  double seconds = 0.0;

  /// First epoch (1-based) whose test accuracy reaches `target`
  /// (percent), or -1 if never reached. Used for the paper's "2x fewer
  /// epochs" claim (Fig. 8).
  int epochs_to_reach(double target) const;
};

/// Evaluate a network on a chip whose faulty PEs actively corrupt
/// partial sums (unmitigated) or are bypassed (mitigated), by routing all
/// matmul layers through the fixed-point systolic engine. The float
/// engine is restored before returning.
double evaluate_with_faults(snn::Network& net, const data::Dataset& test,
                            const systolic::ArrayConfig& array,
                            const fault::FaultMap& map,
                            systolic::SystolicGemmEngine::FaultHandling
                                handling);

/// Batched-eval variant: same semantics over a prebuilt whole-set
/// EvalBatch (bench::EvalSets shares one per dataset across an entire
/// scenario grid), so one engine plan + fault schedule is amortized
/// across every test sample of the cell. Bit-identical to the Dataset
/// overload on the same samples.
double evaluate_with_faults(snn::Network& net, const snn::EvalBatch& test,
                            const systolic::ArrayConfig& array,
                            const fault::FaultMap& map,
                            systolic::SystolicGemmEngine::FaultHandling
                                handling);

/// Fault-aware pruning (Algorithm 1 lines 1-2): build the masks of the
/// weights mapped to faulty PEs and zero them, in a "prune" trace span.
/// The returned pruner re-zeroes them after each retraining epoch.
fault::NetworkPruner prune_network(snn::Network& net,
                                   const fault::FaultMap& map);

/// Accuracy of a pruned network, i.e. of the chip with its faulty PEs
/// bypassed, in a "faulty_eval" trace span (as is evaluate_with_faults).
double evaluate_pruned(snn::Network& net, const data::Dataset& test);

/// Read the current V_th of every hidden spiking layer.
std::vector<VthEntry> collect_vth(snn::Network& net);

}  // namespace falvolt::core
