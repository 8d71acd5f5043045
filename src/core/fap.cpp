#include "core/fap.h"

#include "common/timer.h"

namespace falvolt::core {

MitigationResult run_fap(snn::Network& net, const fault::FaultMap& map,
                         const data::Dataset& test) {
  common::Timer timer;
  MitigationResult res;
  res.method = "FaP";
  fault::NetworkPruner pruner = prune_network(net, map);
  res.prune_report = pruner.report();
  res.pruned_accuracy = evaluate_pruned(net, test);
  res.final_accuracy = res.pruned_accuracy;
  res.vth_per_layer = collect_vth(net);
  res.seconds = timer.seconds();
  return res;
}

}  // namespace falvolt::core
