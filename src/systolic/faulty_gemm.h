#pragma once
// Functional (bit-accurate, order-accurate) model of GEMM on the faulty
// systolic array.
//
// For one output element C[i][j], the partial sum traverses the PE column
// j mod cols once per K-tile, visiting logical positions kk = 0 ..
// padded_k-1 in order; at each position the PE accumulates (spike-gated
// add of the pre-stored weight) and its stuck accumulator bits corrupt
// the outgoing value. This engine reproduces that traversal exactly —
// including corruption by idle padding rows and saturation per step — and
// is tested bit-identical against the register-level cycle simulator.
//
// The per-layer plan quantizes the weights and precomputes the fault-event
// schedule once per physical PE column (output columns folding onto the
// same PE column share it). Output rows are independent, so `run` splits
// them across the compute thread pool; each row is evaluated exactly as in
// a serial run, keeping the result bit-identical for any thread count.
//
// Hot path: every row, binary or real, faulty or clean, is evaluated from
// its nonzero list (run_sparse takes the lists directly; run compacts
// each dense row into one) by one 8-column kernel. The plan keeps the
// quantized weights padded to a multiple of 8 columns and, per group of 8
// output columns, the merged fault-event list: the union of the 8 lanes'
// PE-column schedules sorted by position, with per-lane sa0/sa1 masks (a
// zero mask leaves its lane unchanged). The kernel walks the row's list
// and the group's events together in the reference's order: events
// before a nonzero position, the saturating add of the position's
// weights (a real-valued activation first multiplies, once quantized per
// row; an activation of exactly 1.0f adds unmultiplied), the event at the
// position, and after the list every remaining event, padding rows
// included. Zero activations add nothing and are skipped, as in the
// reference. AVX2 lanes run it when their int32 arithmetic equals the
// format's: adds for words <= 31 bits, multiplies for words <= 16 bits;
// otherwise, and in builds without AVX2, eight scalar lanes with the
// format's own add and multiply do. FALVOLT_FORCE_SCALAR=1 pins every row
// to the exact serial reference loop (a list row is expanded to a dense
// row for it), so the kernel is always byte-for-byte checkable against
// it.
//
// Fault handling modes:
//   kCorrupt — stuck bits corrupt the psum (the unmitigated chip);
//   kBypass  — faulty PEs are bypassed by the Fig. 3b mux: their weight
//              contribution is dropped and no corruption occurs (the
//              hardware side of FaP/FalVolt).

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault_map.h"
#include "snn/layer.h"
#include "systolic/mapping.h"

namespace falvolt::systolic {

class SystolicGemmEngine final : public snn::GemmEngine {
 public:
  enum class FaultHandling { kCorrupt, kBypass };

  /// `map` may be nullptr (a golden chip: quantization effects only).
  /// The map, when given, must match the array dimensions.
  SystolicGemmEngine(const ArrayConfig& cfg, const fault::FaultMap* map,
                     FaultHandling handling = FaultHandling::kCorrupt);

  void run(const float* a, const float* w, float* c, int m, int k, int n,
           const std::string& layer_tag) override;
  void run_sparse(const int* row_ptr, const int* cols, const float* vals,
                  const float* w, float* c, int m, int k, int n,
                  const std::string& layer_tag) override;

  /// Drop cached per-layer quantized weights. Plans are also invalidated
  /// automatically when the weight *content* changes (the cache keys on a
  /// checksum, not just the buffer address), so this is an optimization
  /// for bulk weight swaps, not a correctness requirement.
  void clear_plans();

  const ArrayConfig& config() const { return cfg_; }
  FaultHandling handling() const { return handling_; }

  /// Worker threads for run(): 0 (default) uses the global pool size,
  /// 1 forces serial evaluation. Output is identical either way.
  void set_threads(int threads) { threads_ = threads; }
  int threads() const { return threads_; }

  /// Force the exact serial reference loop instead of the 8-lane kernel
  /// (tests diff the two byte-for-byte). Defaults to the
  /// FALVOLT_FORCE_SCALAR environment variable.
  void set_force_scalar(bool force) { force_scalar_ = force; }
  bool force_scalar() const { return force_scalar_; }

  /// Total accumulate steps executed since construction (bench
  /// telemetry). Identical across the fast and reference paths.
  std::uint64_t accumulate_steps() const {
    return steps_.load(std::memory_order_relaxed);
  }

  /// Which codepath evaluated each output row since construction
  /// (schedule-only telemetry; the paths are bit-identical by contract):
  ///   vector_rows     rows through the AVX2 lanes
  ///   scalar_rows     rows through the portable scalar lanes
  ///   real_rows       rows holding a real-valued activation (either
  ///                   lanes), quantized once per row
  ///   reference_rows  rows through the serial reference loop (only
  ///                   under force_scalar)
  struct PathCounts {
    std::uint64_t vector_rows = 0;
    std::uint64_t scalar_rows = 0;
    std::uint64_t real_rows = 0;
    std::uint64_t reference_rows = 0;
  };
  PathCounts path_counts() const {
    PathCounts p;
    p.vector_rows = vector_rows_.load(std::memory_order_relaxed);
    p.scalar_rows = scalar_rows_.load(std::memory_order_relaxed);
    p.real_rows = real_rows_.load(std::memory_order_relaxed);
    p.reference_rows = reference_rows_.load(std::memory_order_relaxed);
    return p;
  }

 private:
  struct FaultEvent {
    int pos = 0;  // traversal position in [0, padded_k)
    fx::StuckBits bits;
  };
  struct LayerPlan {
    // [k x n8] with n8 = n rounded up to a multiple of 8: row kk at
    // kk * n8; bypassed weights and the padding lanes are zero.
    std::vector<std::int32_t> qweights;
    // The reference loop's fault-event schedule per *physical* PE column;
    // output column j uses entry j mod cols. Sized min(n, cols) — the PE
    // columns actually hit.
    std::vector<std::vector<FaultEvent>> pe_column_events;
    // Merged schedule per group of 8 output columns: group g's events are
    // [group_events[g], group_events[g + 1]) of event_pos (ascending, the
    // last entry a sentinel past every position) and event_masks (16
    // words each: sa0 of lanes 0..7, then sa1).
    std::vector<int> group_events;
    std::vector<int> event_pos;
    std::vector<std::uint32_t> event_masks;
    int k = 0;
    int n = 0;
    int n8 = 0;
    int padded_k = 0;
    const float* weight_ptr = nullptr;   // last seen buffer (diagnostic)
    std::uint64_t weight_hash = 0;       // content identity of the weights
  };
  // A's rows: dense [m x k] when `dense` is set, CSR lists otherwise.
  struct Rows {
    const float* dense = nullptr;
    const int* row_ptr = nullptr;
    const int* cols = nullptr;
    const float* vals = nullptr;
  };
  // Per-worker buffers and tallies of run_rows.
  struct RowScratch;

  const LayerPlan& plan_for(const std::string& tag, const float* w, int k,
                            int n);
  void run_plan(const LayerPlan& plan, const Rows& rows, float* c, int m);
  void run_rows(const LayerPlan& plan, const Rows& rows, float* c, int i0,
                int i1);
  /// The exact serial reference for one output row (all columns):
  /// per-step saturating accumulate + fault events, any activation kind.
  void reference_row(const LayerPlan& plan, const float* arow, float* crow,
                     std::uint64_t& local_steps) const;
  /// The 8-lane kernel for one row given as its nonzero list.
  void lanes_row(const LayerPlan& plan, const int* cols, const float* vals,
                 int count, float* crow, RowScratch& scratch) const;

  ArrayConfig cfg_;
  const fault::FaultMap* map_;
  FaultHandling handling_;
  int threads_ = 0;
  bool force_scalar_ = false;
  std::unordered_map<std::string, LayerPlan> plans_;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> vector_rows_{0};
  std::atomic<std::uint64_t> scalar_rows_{0};
  std::atomic<std::uint64_t> real_rows_{0};
  std::atomic<std::uint64_t> reference_rows_{0};
};

}  // namespace falvolt::systolic
