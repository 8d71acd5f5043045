#include "core/mitigation.h"

#include "obs/trace.h"

namespace falvolt::core {

int MitigationResult::epochs_to_reach(double target) const {
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve[i].test_accuracy >= target) return static_cast<int>(i) + 1;
  }
  return -1;
}

double evaluate_with_faults(snn::Network& net, const data::Dataset& test,
                            const systolic::ArrayConfig& array,
                            const fault::FaultMap& map,
                            systolic::SystolicGemmEngine::FaultHandling
                                handling) {
  obs::TraceSpan span("phase", "faulty_eval");
  systolic::SystolicGemmEngine engine(array, &map, handling);
  net.set_gemm_engine(&engine);
  const double acc = snn::evaluate(net, test);
  net.set_gemm_engine(nullptr);
  return acc;
}

double evaluate_with_faults(snn::Network& net, const snn::EvalBatch& test,
                            const systolic::ArrayConfig& array,
                            const fault::FaultMap& map,
                            systolic::SystolicGemmEngine::FaultHandling
                                handling) {
  obs::TraceSpan span("phase", "faulty_eval");
  systolic::SystolicGemmEngine engine(array, &map, handling);
  net.set_gemm_engine(&engine);
  const double acc = snn::evaluate(net, test);
  net.set_gemm_engine(nullptr);
  return acc;
}

fault::NetworkPruner prune_network(snn::Network& net,
                                  const fault::FaultMap& map) {
  obs::TraceSpan span("phase", "prune");
  fault::NetworkPruner pruner(net, map);
  pruner.apply(net);
  return pruner;
}

double evaluate_pruned(snn::Network& net, const data::Dataset& test) {
  obs::TraceSpan span("phase", "faulty_eval");
  return snn::evaluate(net, test);
}

std::vector<VthEntry> collect_vth(snn::Network& net) {
  std::vector<VthEntry> out;
  for (snn::Plif* p : net.hidden_spiking_layers()) {
    out.push_back(VthEntry{p->name(), p->vth()});
  }
  return out;
}

}  // namespace falvolt::core
