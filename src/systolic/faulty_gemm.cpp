#include "systolic/faulty_gemm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <stdexcept>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/env.h"
#include "compute/simd.h"
#include "compute/thread_pool.h"
#include "obs/metrics.h"

namespace falvolt::systolic {

namespace {

// Content checksum of a weight buffer (64-bit FNV-1a over 8-byte words,
// byte-wise tail). Guards the plan cache against the stale-plan hazard: a
// reallocated or in-place-mutated tensor landing at a previously seen
// address must not silently reuse the old quantized plan.
std::uint64_t hash_weights(const float* w, std::size_t count) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull ^ count;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(w);
  std::size_t bytes = count * sizeof(float);
  while (bytes >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kPrime;
    p += 8;
    bytes -= 8;
  }
  while (bytes > 0) {
    h = (h ^ *p++) * kPrime;
    --bytes;
  }
  return h;
}

constexpr int kLanes = compute::kI32Lanes;

// Ends each group's event positions in the plan.
constexpr int kNoEvent = std::numeric_limits<int>::max();

// One group of 8 output columns as the kernel sees it: its weights (row
// kk at kk * stride) and its merged fault events.
struct Group {
  const std::int32_t* weights;
  std::size_t stride;
  const int* pos;              // ascending, ended by kNoEvent
  const std::uint32_t* masks;  // per event: sa0 of the 8 lanes, then sa1
};

// StuckBits::apply with the masks of one lane: force the stuck bits, then
// sign-extend the word's low total_bits (the shift drops any mask bits
// above the word). A canonical value with zero masks comes back unchanged.
std::int32_t stuck(std::int32_t acc, std::uint32_t sa0, std::uint32_t sa1,
                   int shift) {
  const std::uint32_t bits = (static_cast<std::uint32_t>(acc) & ~sa0) | sa1;
  return static_cast<std::int32_t>(bits << shift) >> shift;
}

// Eight scalar lanes with the format's own saturating add and multiply:
// exact for every word width. The only lanes of a build without AVX2.
class ScalarLanes {
 public:
  using Acc = std::array<std::int32_t, kLanes>;

  explicit ScalarLanes(const fx::FixedFormat& fmt)
      : fmt_(fmt), shift_(32 - fmt.total_bits()) {}

  Acc zero() const { return {}; }
  Acc load(const std::int32_t* p) const {
    Acc v;
    std::copy(p, p + kLanes, v.begin());
    return v;
  }
  Acc mul(const Acc& w, std::int32_t qa) const {
    Acc v;
    for (int l = 0; l < kLanes; ++l) v[l] = fmt_.mul(w[l], qa);
    return v;
  }
  void add(Acc& acc, const Acc& w) const {
    for (int l = 0; l < kLanes; ++l) acc[l] = fmt_.add(acc[l], w[l]);
  }
  void apply(Acc& acc, const std::uint32_t* masks) const {
    for (int l = 0; l < kLanes; ++l) {
      acc[l] = stuck(acc[l], masks[l], masks[kLanes + l], shift_);
    }
  }
  void store(const Acc& acc, float* out) const {
    for (int l = 0; l < kLanes; ++l) {
      out[l] = static_cast<float>(fmt_.dequantize(acc[l]));
    }
  }

 private:
  const fx::FixedFormat& fmt_;
  int shift_;
};

#if defined(__AVX2__)
// The same lanes in one AVX2 register: add-then-clamp equals the format's
// saturating add for words <= 31 bits (no int32 overflow), and the int32
// product equals its multiply for words <= 16 bits.
class VectorLanes {
 public:
  using Acc = __m256i;

  static bool exact(const fx::FixedFormat& fmt, bool real) {
    return fmt.total_bits() <= (real ? 16 : 31);
  }

  explicit VectorLanes(const fx::FixedFormat& fmt)
      : lo_(_mm256_set1_epi32(fmt.min_raw())),
        hi_(_mm256_set1_epi32(fmt.max_raw())),
        half_(_mm256_set1_epi32(
            static_cast<std::int32_t>((std::int64_t{1} << fmt.frac_bits()) >>
                                      1))),
        frac_(_mm_cvtsi32_si128(fmt.frac_bits())),
        shift_(_mm_cvtsi32_si128(32 - fmt.total_bits())),
        resolution_(_mm256_set1_ps(static_cast<float>(fmt.resolution()))) {}

  Acc zero() const { return _mm256_setzero_si256(); }
  Acc load(const std::int32_t* p) const {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  Acc mul(const Acc& w, std::int32_t qa) const {
    const __m256i prod = _mm256_add_epi32(
        _mm256_mullo_epi32(w, _mm256_set1_epi32(qa)), half_);
    return clamp(_mm256_sra_epi32(prod, frac_));
  }
  void add(Acc& acc, const Acc& w) const {
    acc = clamp(_mm256_add_epi32(acc, w));
  }
  void apply(Acc& acc, const std::uint32_t* masks) const {
    const __m256i bits = _mm256_or_si256(
        _mm256_andnot_si256(load(reinterpret_cast<const std::int32_t*>(masks)),
                            acc),
        load(reinterpret_cast<const std::int32_t*>(masks + kLanes)));
    acc = _mm256_sra_epi32(_mm256_sll_epi32(bits, shift_), shift_);
  }
  // fmt.dequantize as a float: the scale is a power of two, so scaling
  // the rounded int32 equals rounding the exact double quotient.
  void store(const Acc& acc, float* out) const {
    _mm256_storeu_ps(out, _mm256_mul_ps(_mm256_cvtepi32_ps(acc), resolution_));
  }

 private:
  __m256i clamp(__m256i v) const {
    return _mm256_min_epi32(_mm256_max_epi32(v, lo_), hi_);
  }

  __m256i lo_, hi_, half_;
  __m128i frac_, shift_;
  __m256 resolution_;
};
#endif

// One row of one group: the reference's traversal over the row's nonzero
// positions. Events strictly before a position come first, then the
// position's add, then its own event; after the list, every remaining
// event (padding rows included). qa[t] is the quantized activation at
// cols[t], read only by real-valued rows; 1.0f adds unmultiplied.
template <bool kReal, typename Lanes>
void walk_group(const Lanes& lanes, const Group& g, const int* cols,
                const float* vals, const std::int32_t* qa, int count,
                float* out) {
  typename Lanes::Acc acc = lanes.zero();
  const int* pos = g.pos;
  const std::uint32_t* masks = g.masks;
  const auto apply_next = [&] {
    lanes.apply(acc, masks);
    ++pos;
    masks += 2 * kLanes;
  };
  for (int t = 0; t < count; ++t) {
    const int q = cols[t];
    while (*pos < q) apply_next();
    typename Lanes::Acc w =
        lanes.load(g.weights + static_cast<std::size_t>(q) * g.stride);
    if (kReal && vals[t] != 1.0f) w = lanes.mul(w, qa[t]);
    lanes.add(acc, w);
    if (*pos == q) apply_next();
  }
  while (*pos != kNoEvent) apply_next();
  lanes.store(acc, out);
}

// Every group of one row, eight output columns at a time.
template <typename Lanes>
void walk_row(const Lanes& lanes, const std::vector<Group>& groups,
              bool real, const int* cols, const float* vals,
              const std::int32_t* qa, int count, float* out) {
  for (const Group& g : groups) {
    if (real) {
      walk_group<true>(lanes, g, cols, vals, qa, count, out);
    } else {
      walk_group<false>(lanes, g, cols, vals, qa, count, out);
    }
    out += kLanes;
  }
}

}  // namespace

struct SystolicGemmEngine::RowScratch {
  explicit RowScratch(const LayerPlan& plan)
      : cols(static_cast<std::size_t>(plan.k)),
        vals(cols.size()),
        out(static_cast<std::size_t>(plan.n8)) {
    for (int g = 0; g < plan.n8 / kLanes; ++g) {
      const int e0 = plan.group_events[static_cast<std::size_t>(g)];
      groups.push_back(Group{
          plan.qweights.data() + static_cast<std::size_t>(g) * kLanes,
          static_cast<std::size_t>(plan.n8), plan.event_pos.data() + e0,
          plan.event_masks.data() +
              static_cast<std::size_t>(e0) * 2 * kLanes});
    }
  }

  std::vector<int> cols;         // a dense row's nonzero positions
  std::vector<float> vals;       // ... and their values
  std::vector<std::int32_t> qa;  // quantized activations (real rows)
  std::vector<float> dense;      // a list row expanded (reference rows)
  std::vector<Group> groups;     // the plan's groups, as the kernel reads
  std::vector<float> out;        // one row's results, n8 wide
  std::uint64_t steps = 0;
  std::uint64_t vector_rows = 0;
  std::uint64_t scalar_rows = 0;
  std::uint64_t real_rows = 0;
  std::uint64_t reference_rows = 0;
};

SystolicGemmEngine::SystolicGemmEngine(const ArrayConfig& cfg,
                                       const fault::FaultMap* map,
                                       FaultHandling handling)
    : cfg_(cfg), map_(map), handling_(handling) {
  if (map_ && (map_->rows() != cfg.rows || map_->cols() != cfg.cols)) {
    throw std::invalid_argument(
        "SystolicGemmEngine: fault map does not match array dimensions");
  }
  force_scalar_ = common::env_int_or("FALVOLT_FORCE_SCALAR", 0) != 0;
}

void SystolicGemmEngine::clear_plans() { plans_.clear(); }

const SystolicGemmEngine::LayerPlan& SystolicGemmEngine::plan_for(
    const std::string& tag, const float* w, int k, int n) {
  const std::uint64_t hash =
      hash_weights(w, static_cast<std::size_t>(k) * n);
  auto it = plans_.find(tag);
  if (it != plans_.end() && it->second.weight_hash == hash &&
      it->second.k == k && it->second.n == n) {
    return it->second;
  }
  LayerPlan plan;
  plan.k = k;
  plan.n = n;
  plan.n8 = (n + kLanes - 1) / kLanes * kLanes;
  plan.padded_k = padded_k(k, cfg_);
  plan.weight_ptr = w;
  plan.weight_hash = hash;
  plan.qweights.assign(static_cast<std::size_t>(k) * plan.n8, 0);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) {
      const bool bypassed =
          handling_ == FaultHandling::kBypass && map_ &&
          map_->is_faulty(kk % cfg_.rows, j % cfg_.cols);
      plan.qweights[static_cast<std::size_t>(kk) * plan.n8 + j] =
          bypassed ? 0
                   : cfg_.format.quantize(
                         w[static_cast<std::size_t>(kk) * n + j]);
    }
  }
  // One event schedule per physical PE column: output columns folding
  // onto the same PE column traverse the same faulty accumulators, so the
  // schedule is shared instead of being replicated per output column.
  const int used_cols = std::min(n, cfg_.cols);
  plan.pe_column_events.assign(static_cast<std::size_t>(used_cols), {});
  if (map_ && handling_ == FaultHandling::kCorrupt) {
    for (int pe_col = 0; pe_col < used_cols; ++pe_col) {
      auto& events =
          plan.pe_column_events[static_cast<std::size_t>(pe_col)];
      for (int pos = 0; pos < plan.padded_k; ++pos) {
        const fx::StuckBits* bits = map_->at(pos % cfg_.rows, pe_col);
        if (bits) events.push_back(FaultEvent{pos, *bits});
      }
    }
  }
  // Per group of 8 output columns, every position where a lane's PE is
  // faulty, with each lane's masks (zero for lanes whose PE is sound).
  const int groups = plan.n8 / kLanes;
  plan.group_events.assign(static_cast<std::size_t>(groups) + 1, 0);
  for (int g = 0; g < groups; ++g) {
    for (int pos = 0; map_ && handling_ == FaultHandling::kCorrupt &&
                      pos < plan.padded_k;
         ++pos) {
      std::uint32_t masks[2 * kLanes] = {};
      bool faulty = false;
      for (int l = 0; l < kLanes && g * kLanes + l < n; ++l) {
        const fx::StuckBits* bits =
            map_->at(pos % cfg_.rows, (g * kLanes + l) % cfg_.cols);
        if (bits == nullptr) continue;
        masks[l] = bits->sa0_mask;
        masks[kLanes + l] = bits->sa1_mask;
        faulty = true;
      }
      if (!faulty) continue;
      plan.event_pos.push_back(pos);
      plan.event_masks.insert(plan.event_masks.end(), masks,
                              masks + 2 * kLanes);
    }
    plan.event_pos.push_back(kNoEvent);
    plan.event_masks.resize(plan.event_masks.size() + 2 * kLanes, 0);
    plan.group_events[static_cast<std::size_t>(g) + 1] =
        static_cast<int>(plan.event_pos.size());
  }
  auto [ins, _] = plans_.insert_or_assign(tag, std::move(plan));
  return ins->second;
}

void SystolicGemmEngine::reference_row(const LayerPlan& plan,
                                       const float* arow, float* crow,
                                       std::uint64_t& local_steps) const {
  const fx::FixedFormat& fmt = cfg_.format;
  for (int j = 0; j < plan.n; ++j) {
    // j mod cols < min(n, cols) == pe_column_events.size() always.
    const std::vector<FaultEvent>& events =
        plan.pe_column_events[static_cast<std::size_t>(j % cfg_.cols)];
    std::int32_t acc = 0;

    // Accumulate weights over positions [lo, hi) of the traversal.
    const auto accumulate_segment = [&](int lo, int hi) {
      const int stop = std::min(hi, plan.k);  // padding rows hold w == 0
      for (int kk = lo; kk < stop; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        std::int32_t contrib =
            plan.qweights[static_cast<std::size_t>(kk) * plan.n8 + j];
        if (av != 1.0f) {
          // Real-valued activation (spike-encoder input): fixed multiply.
          contrib = fmt.mul(contrib, fmt.quantize(av));
        }
        acc = fmt.add(acc, contrib);
        ++local_steps;
      }
    };

    if (events.empty()) {
      accumulate_segment(0, plan.padded_k);
    } else {
      int cursor = 0;
      for (const FaultEvent& ev : events) {
        // All accumulation strictly before the faulty position, then the
        // faulty PE's own accumulate step, then its corruption.
        accumulate_segment(cursor, ev.pos);
        accumulate_segment(ev.pos, ev.pos + 1);
        acc = ev.bits.apply(acc, fmt);
        cursor = ev.pos + 1;
      }
      accumulate_segment(cursor, plan.padded_k);
    }
    crow[j] = static_cast<float>(fmt.dequantize(acc));
  }
}

void SystolicGemmEngine::lanes_row(const LayerPlan& plan, const int* cols,
                                   const float* vals, int count, float* crow,
                                   RowScratch& scratch) const {
  const fx::FixedFormat& fmt = cfg_.format;
  // Quantize a real-valued row's activations once, for every group.
  const bool real = std::any_of(vals, vals + count,
                                [](float v) { return v != 1.0f; });
  if (real) {
    scratch.qa.resize(static_cast<std::size_t>(count));
    for (int t = 0; t < count; ++t) scratch.qa[t] = fmt.quantize(vals[t]);
    ++scratch.real_rows;
  }
#if defined(__AVX2__)
  if (VectorLanes::exact(fmt, real)) {
    walk_row(VectorLanes(fmt), scratch.groups, real, cols, vals,
             scratch.qa.data(), count, scratch.out.data());
    ++scratch.vector_rows;
  } else
#endif
  {
    walk_row(ScalarLanes(fmt), scratch.groups, real, cols, vals,
             scratch.qa.data(), count, scratch.out.data());
    ++scratch.scalar_rows;
  }
  // Whole groups were written; lanes past n are dropped here.
  std::copy(scratch.out.begin(), scratch.out.begin() + plan.n, crow);
  scratch.steps += static_cast<std::uint64_t>(count) * plan.n;
}

void SystolicGemmEngine::run_rows(const LayerPlan& plan, const Rows& rows,
                                  float* c, int i0, int i1) {
  RowScratch scratch(plan);
  const std::size_t k = static_cast<std::size_t>(plan.k);
  for (int i = i0; i < i1; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * plan.n;
    if (force_scalar_) {
      // The byte-for-byte oracle the FALVOLT_FORCE_SCALAR knob pins every
      // row to, on the row in dense form.
      if (rows.dense == nullptr) {
        scratch.dense.assign(k, 0.0f);
        for (int t = rows.row_ptr[i]; t < rows.row_ptr[i + 1]; ++t) {
          scratch.dense[static_cast<std::size_t>(rows.cols[t])] = rows.vals[t];
        }
      }
      reference_row(plan, rows.dense ? rows.dense + i * k : scratch.dense.data(),
                    crow, scratch.steps);
      ++scratch.reference_rows;
      continue;
    }
    if (rows.dense == nullptr) {
      const int t0 = rows.row_ptr[i];
      lanes_row(plan, rows.cols + t0, rows.vals + t0,
                rows.row_ptr[i + 1] - t0, crow, scratch);
      continue;
    }
    // A dense row, compacted into the same list form: every position is
    // stored, and only the nonzero ones are kept (no branch).
    const float* arow = rows.dense + i * k;
    int count = 0;
    for (int kk = 0; kk < plan.k; ++kk) {
      scratch.cols[count] = kk;
      scratch.vals[count] = arow[kk];
      count += arow[kk] != 0.0f;
    }
    lanes_row(plan, scratch.cols.data(), scratch.vals.data(), count, crow,
              scratch);
  }
  steps_.fetch_add(scratch.steps, std::memory_order_relaxed);
  vector_rows_.fetch_add(scratch.vector_rows, std::memory_order_relaxed);
  scalar_rows_.fetch_add(scratch.scalar_rows, std::memory_order_relaxed);
  real_rows_.fetch_add(scratch.real_rows, std::memory_order_relaxed);
  reference_rows_.fetch_add(scratch.reference_rows,
                            std::memory_order_relaxed);
  // Fleet-wide mirrors of the same counts (obs/metrics.h), so the path
  // mix shows up in --metrics-json without threading engine pointers up
  // through the sweep layers.
  static obs::Counter& g_vector = obs::counter("kernel.faulty_gemm.vector_rows");
  static obs::Counter& g_scalar = obs::counter("kernel.faulty_gemm.scalar_rows");
  static obs::Counter& g_real = obs::counter("kernel.faulty_gemm.real_rows");
  static obs::Counter& g_reference =
      obs::counter("kernel.faulty_gemm.reference_rows");
  static obs::Counter& g_steps = obs::counter("kernel.faulty_gemm.steps");
  if (scratch.vector_rows) g_vector.add(scratch.vector_rows);
  if (scratch.scalar_rows) g_scalar.add(scratch.scalar_rows);
  if (scratch.real_rows) g_real.add(scratch.real_rows);
  if (scratch.reference_rows) g_reference.add(scratch.reference_rows);
  if (scratch.steps) g_steps.add(scratch.steps);
}

void SystolicGemmEngine::run_plan(const LayerPlan& plan, const Rows& rows,
                                  float* c, int m) {
  const int threads =
      threads_ > 0 ? threads_ : compute::global_threads();
  if (threads > 1 && m > 1) {
    // Row chunks at least ceil(m/threads) wide cap the effective
    // concurrency at the requested width even on a larger pool.
    const int grain = (m + threads - 1) / threads;
    compute::global_pool().parallel_for(0, m, grain,
                                        [&](int i0, int i1) {
                                          run_rows(plan, rows, c, i0, i1);
                                        });
  } else {
    run_rows(plan, rows, c, 0, m);
  }
}

void SystolicGemmEngine::run(const float* a, const float* w, float* c, int m,
                             int k, int n, const std::string& layer_tag) {
  Rows rows;
  rows.dense = a;
  run_plan(plan_for(layer_tag, w, k, n), rows, c, m);
}

void SystolicGemmEngine::run_sparse(const int* row_ptr, const int* cols,
                                    const float* vals, const float* w,
                                    float* c, int m, int k, int n,
                                    const std::string& layer_tag) {
  Rows rows;
  rows.row_ptr = row_ptr;
  rows.cols = cols;
  rows.vals = vals;
  run_plan(plan_for(layer_tag, w, k, n), rows, c, m);
}

}  // namespace falvolt::systolic
