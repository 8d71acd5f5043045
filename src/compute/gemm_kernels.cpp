#include "compute/gemm_kernels.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "compute/simd.h"
#include "compute/thread_pool.h"

namespace falvolt::compute {

namespace {

// Micro-tile geometry: MR output rows x NR output columns held in
// registers across a whole K panel. NR matches one-or-two vector widths;
// MR x NR must stay within the 16-register budget of AVX2 (8x8 floats =
// 8 accumulator vectors + a B row + an A broadcast).
constexpr int kMr = 8;
constexpr int kNr = 8;
// K panel: one packed B panel is kKc x kNr floats (8 KB), resident in L1
// while the micro-kernel streams over it.
constexpr int kKc = 256;

// gemm_a_bt_blocked takes the lane kernel only below this depth. GCC -O3
// with AVX2+FMA compiles the scalar dot for k >= 32 into a vectorized
// main body that does unfused mul+add over the first 32*floor(k/32)
// terms; below 32 it is four pure FMA chains, which the lanes reproduce.
constexpr int kLaneMaxK = 32;

// Row-parallel work is split at this many output rows per chunk.
constexpr int kRowGrain = 16;
// Problems below this many multiply-adds never leave the calling thread.
constexpr long long kParallelFlops = 1LL << 18;

inline void zero_output(float* c, int m, int n, bool accumulate) {
  if (!accumulate) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  }
}

// ---------------------------------------------------------------- naive

// i-k-j with a zero-skip fast path: spike activations are mostly zero, so
// skipping av == 0 drops the bulk of the inner-loop work. Skipped terms
// contribute exactly +0, so the result matches the dense accumulation.
void gemm_naive_rows(const float* a, const float* b, float* c, int i0,
                     int i1, int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt_rows(const float* a, const float* b, float* c, int i0, int i1,
                    int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

// --------------------------------------------------------------- blocked

#if defined(__GNUC__) || defined(__clang__)
#define FALVOLT_VECTOR_KERNEL 1
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"  // see compute/simd.h
#endif
// One vector spans a full kNr micro-tile row.
static_assert(kNr == 8, "micro-kernel assumes one 8-lane vector per row");

// Lane form of gemm_a_bt_blocked's dot product: output columns
// j .. j+7 of one row at once, bt = B^T packed [k x n]. Lane l runs the
// scalar loop's exact operations for column j+l — four partial sums over
// kk += 4, the k % 4 tail into s0, the (s0+s1)+(s2+s3) combine — so the
// result is bitwise the scalar loop's whenever both compile to the same
// per-term arithmetic (see kLaneMaxK).
inline void a_bt_lanes(const float* arow, const float* bt, float* crow, int k,
                       int n, int j) {
  Vf8 s0{}, s1{}, s2{}, s3{};
  const float* col = bt + j;
  const std::size_t ld = static_cast<std::size_t>(n);
  int kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    s0 += arow[kk] * load8(col + kk * ld);
    s1 += arow[kk + 1] * load8(col + (kk + 1) * ld);
    s2 += arow[kk + 2] * load8(col + (kk + 2) * ld);
    s3 += arow[kk + 3] * load8(col + (kk + 3) * ld);
  }
  for (; kk < k; ++kk) s0 += arow[kk] * load8(col + kk * ld);
  store8(crow + j, load8(crow + j) + ((s0 + s1) + (s2 + s3)));
}

// Full 8x8 micro-tile: eight named accumulator vectors (one per output
// row) live in registers for the whole K panel; per k step the kernel
// issues one B-row load, eight A broadcasts, and eight vector FMAs.
// Lane j of row r accumulates sum_k a[r][k] * b[k][j] with k ascending —
// the same per-element order as the scalar kernels.
void micro_kernel_full(const float* a, int lda, const float* bp, float* c,
                       int ldc, int kc) {
  Vf8 acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{}, acc6{}, acc7{};
  const float* r0 = a;
  const float* r1 = a + lda;
  const float* r2 = a + 2 * static_cast<std::size_t>(lda);
  const float* r3 = a + 3 * static_cast<std::size_t>(lda);
  const float* r4 = a + 4 * static_cast<std::size_t>(lda);
  const float* r5 = a + 5 * static_cast<std::size_t>(lda);
  const float* r6 = a + 6 * static_cast<std::size_t>(lda);
  const float* r7 = a + 7 * static_cast<std::size_t>(lda);
  for (int kk = 0; kk < kc; ++kk) {
    const Vf8 bv = load8(bp + static_cast<std::size_t>(kk) * kNr);
    acc0 += r0[kk] * bv;
    acc1 += r1[kk] * bv;
    acc2 += r2[kk] * bv;
    acc3 += r3[kk] * bv;
    acc4 += r4[kk] * bv;
    acc5 += r5[kk] * bv;
    acc6 += r6[kk] * bv;
    acc7 += r7[kk] * bv;
  }
  const Vf8* acc[kMr] = {&acc0, &acc1, &acc2, &acc3,
                         &acc4, &acc5, &acc6, &acc7};
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    store8(crow, load8(crow) + *acc[r]);
  }
}
#else
// Portable fallback: constant trip counts let the compiler unroll and
// register-allocate the accumulator tile.
void micro_kernel_full(const float* a, int lda, const float* bp, float* c,
                       int ldc, int kc) {
  float acc[kMr][kNr] = {{0.0f}};
  for (int kk = 0; kk < kc; ++kk) {
    const float* brow = bp + static_cast<std::size_t>(kk) * kNr;
    for (int r = 0; r < kMr; ++r) {
      const float av = a[static_cast<std::size_t>(r) * lda + kk];
      for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    for (int j = 0; j < kNr; ++j) crow[j] += acc[r][j];
  }
}
#endif  // FALVOLT_VECTOR_KERNEL

// Edge tile (mr < kMr rows and/or nr < kNr live columns). The packed B
// panel is zero-padded to kNr, so the arithmetic is identical to the full
// tile; only the write-back narrows. Per-row results therefore do not
// depend on how rows were grouped into tiles.
void micro_kernel_edge(const float* a, int lda, const float* bp, float* c,
                       int ldc, int kc, int mr, int nr) {
  float acc[kMr][kNr] = {{0.0f}};
  for (int kk = 0; kk < kc; ++kk) {
    const float* brow = bp + static_cast<std::size_t>(kk) * kNr;
    for (int r = 0; r < mr; ++r) {
      const float av = a[static_cast<std::size_t>(r) * lda + kk];
      for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < mr; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += acc[r][j];
  }
}

// One K slab: pack B[k0 .. k0+kc) into zero-padded column panels, then
// sweep the row blocks in [block_lo, block_hi).
void blocked_row_blocks(const float* a, const float* bp, float* c, int m,
                        int k, int n, int k0, int kc, int block_lo,
                        int block_hi) {
  const int num_panels = (n + kNr - 1) / kNr;
  for (int blk = block_lo; blk < block_hi; ++blk) {
    const int i0 = blk * kMr;
    const int mr = std::min(kMr, m - i0);
    const float* ablk = a + static_cast<std::size_t>(i0) * k + k0;
    for (int jp = 0; jp < num_panels; ++jp) {
      const int j0 = jp * kNr;
      const int nr = std::min(kNr, n - j0);
      const float* panel =
          bp + static_cast<std::size_t>(jp) * kc * kNr;
      float* cblk = c + static_cast<std::size_t>(i0) * n + j0;
      if (mr == kMr && nr == kNr) {
        micro_kernel_full(ablk, k, panel, cblk, n, kc);
      } else {
        micro_kernel_edge(ablk, k, panel, cblk, n, kc, mr, nr);
      }
    }
  }
}

void pack_b_panels(const float* b, float* bp, int k0, int kc, int n) {
  const int num_panels = (n + kNr - 1) / kNr;
  for (int jp = 0; jp < num_panels; ++jp) {
    const int j0 = jp * kNr;
    const int nr = std::min(kNr, n - j0);
    float* panel = bp + static_cast<std::size_t>(jp) * kc * kNr;
    for (int kk = 0; kk < kc; ++kk) {
      const float* src = b + static_cast<std::size_t>(k0 + kk) * n + j0;
      float* dst = panel + static_cast<std::size_t>(kk) * kNr;
      for (int j = 0; j < nr; ++j) dst[j] = src[j];
      for (int j = nr; j < kNr; ++j) dst[j] = 0.0f;
    }
  }
}

// Blocked transpose of src[rows x cols] into dst[cols x rows].
void transpose(const float* src, float* dst, int rows, int cols) {
  constexpr int kTile = 32;
  for (int r0 = 0; r0 < rows; r0 += kTile) {
    const int r1 = std::min(r0 + kTile, rows);
    for (int c0 = 0; c0 < cols; c0 += kTile) {
      const int c1 = std::min(c0 + kTile, cols);
      for (int r = r0; r < r1; ++r) {
        for (int c = c0; c < c1; ++c) {
          dst[static_cast<std::size_t>(c) * rows + r] =
              src[static_cast<std::size_t>(r) * cols + c];
        }
      }
    }
  }
}

// Whether a sample of `rows` rows of `cols` entries holding `nonzeros`
// nonzero entries is dense enough that the zero-skip naive kernels stop
// paying off on spike inputs.
bool dense_sample(std::size_t nonzeros, int rows, int cols) {
  if (rows == 0 || cols == 0) return true;
  const double density = static_cast<double>(nonzeros) /
                         (static_cast<double>(rows) * cols);
  return density >= 0.2;
}

// dense_sample over the first kDensitySampleRows rows of A [m x k].
bool sampled_dense(const float* a, int m, int k) {
  const int rows = std::min(m, kDensitySampleRows);
  std::size_t nz = 0;
  for (int i = 0; i < rows; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) nz += arow[kk] != 0.0f;
  }
  return dense_sample(nz, rows, k);
}

// Shape half of gemm_at_b_auto's choice (A stored [k x m]).
bool at_b_blocked_shape(int k, int m, int n) {
  const long long flops = static_cast<long long>(m) * k * n;
  return n >= kNr && m >= 2 * kMr && k >= kNr && flops >= 1LL << 20;
}

inline bool parallel_worthwhile(int m, long long flops) {
  return flops >= kParallelFlops && m >= 2 * kRowGrain;
}

}  // namespace

void gemm_naive(const float* a, const float* b, float* c, int m, int k,
                int n, bool accumulate) {
  zero_output(c, m, n, accumulate);
  gemm_naive_rows(a, b, c, 0, m, k, n);
}

void gemm_at_b_naive(const float* a, const float* b, float* c, int k, int m,
                     int n, bool accumulate) {
  // C[m x n] = A^T * B with A stored [k x m]; k-outer keeps both operand
  // rows streaming.
  zero_output(c, m, n, accumulate);
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::size_t>(kk) * m;
    const float* brow = b + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt_naive(const float* a, const float* b, float* c, int m, int k,
                     int n, bool accumulate) {
  zero_output(c, m, n, accumulate);
  gemm_a_bt_rows(a, b, c, 0, m, k, n);
}

void gemm_blocked(const float* a, const float* b, float* c, int m, int k,
                  int n, bool accumulate, int threads) {
  zero_output(c, m, n, accumulate);
  if (m == 0 || k == 0 || n == 0) return;
  const int num_panels = (n + kNr - 1) / kNr;
  const int row_blocks = (m + kMr - 1) / kMr;
  std::vector<float> bp(static_cast<std::size_t>(num_panels) * kKc * kNr);
  const bool parallel = threads > 1 && row_blocks > 1;
  // Chunks at least row_blocks/threads wide cap the effective concurrency
  // at the requested width even when the global pool is larger.
  const int grain = parallel ? (row_blocks + threads - 1) / threads : 1;
  for (int k0 = 0; k0 < k; k0 += kKc) {
    const int kc = std::min(kKc, k - k0);
    pack_b_panels(b, bp.data(), k0, kc, n);
    if (parallel) {
      global_pool().parallel_for(
          0, row_blocks, grain, [&](int lo, int hi) {
            blocked_row_blocks(a, bp.data(), c, m, k, n, k0, kc, lo, hi);
          });
    } else {
      blocked_row_blocks(a, bp.data(), c, m, k, n, k0, kc, 0, row_blocks);
    }
  }
}

void gemm_at_b_blocked(const float* a, const float* b, float* c, int k,
                       int m, int n, bool accumulate, int threads) {
  std::vector<float> at(static_cast<std::size_t>(m) * k);
  transpose(a, at.data(), k, m);
  gemm_blocked(at.data(), b, c, m, k, n, accumulate, threads);
}

void gemm_a_bt_blocked(const float* a, const float* b, float* c, int m,
                       int k, int n, bool accumulate, int threads) {
  zero_output(c, m, n, accumulate);
  if (m == 0 || k == 0 || n == 0) return;
  // Four independent partial sums break the dependence chain of the dot
  // product; the combine order is fixed, so results are identical across
  // tilings and thread counts.
  constexpr int kJb = 128;  // B rows revisited per i sweep (L2-resident)
  // Columns [0, nv) take the lane kernel over B^T packed once per call;
  // the n % 8 rest, and every column when k >= kLaneMaxK, the scalar dot.
#if FALVOLT_VECTOR_KERNEL
  const int nv = k < kLaneMaxK ? n - n % kNr : 0;
#else
  const int nv = 0;
#endif
  std::vector<float> bt;
  if (nv > 0) {
    bt.resize(static_cast<std::size_t>(k) * n);
    transpose(b, bt.data(), n, k);
  }
  const auto rows = [&](int i0, int i1) {
    for (int j0 = 0; j0 < n; j0 += kJb) {
      const int j1 = std::min(j0 + kJb, n);
      for (int i = i0; i < i1; ++i) {
        const float* arow = a + static_cast<std::size_t>(i) * k;
        float* crow = c + static_cast<std::size_t>(i) * n;
        int j = j0;
#if FALVOLT_VECTOR_KERNEL
        for (; j < std::min(j1, nv); j += kNr) {
          a_bt_lanes(arow, bt.data(), crow, k, n, j);
        }
#endif
        for (; j < j1; ++j) {
          const float* brow = b + static_cast<std::size_t>(j) * k;
          float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
          int kk = 0;
          for (; kk + 4 <= k; kk += 4) {
            s0 += arow[kk] * brow[kk];
            s1 += arow[kk + 1] * brow[kk + 1];
            s2 += arow[kk + 2] * brow[kk + 2];
            s3 += arow[kk + 3] * brow[kk + 3];
          }
          for (; kk < k; ++kk) s0 += arow[kk] * brow[kk];
          crow[j] += (s0 + s1) + (s2 + s3);
        }
      }
    }
  };
  if (threads > 1 && m >= 2 * kRowGrain) {
    const int grain = std::max(kRowGrain, (m + threads - 1) / threads);
    global_pool().parallel_for(0, m, grain, rows);
  } else {
    rows(0, m);
  }
}

void gemm_auto(const float* a, const float* b, float* c, int m, int k,
               int n, bool accumulate) {
  const long long flops =
      static_cast<long long>(m) * k * n;
  const bool parallel =
      parallel_worthwhile(m, flops) && global_threads() > 1;
  // Narrow or tiny problems stay on the naive kernel. Within one K panel
  // and without accumulate, blocked is bitwise equal to naive at any
  // sparsity (see the header), so only outside that case does the
  // zero-skip kernel keep sparse spike inputs.
  const bool use_blocked =
      n >= kNr && k >= kNr && m >= kMr && flops >= 1LL << 14 &&
      ((!accumulate && k <= kKc) || sampled_dense(a, m, k));
  if (use_blocked) {
    gemm_blocked(a, b, c, m, k, n, accumulate, parallel ? global_threads() : 1);
    return;
  }
  zero_output(c, m, n, accumulate);
  if (parallel) {
    global_pool().parallel_for(0, m, kRowGrain, [&](int i0, int i1) {
      gemm_naive_rows(a, b, c, i0, i1, k, n);
    });
  } else {
    gemm_naive_rows(a, b, c, 0, m, k, n);
  }
}

void gemm_at_b_auto(const float* a, const float* b, float* c, int k, int m,
                    int n, bool accumulate) {
  // The naive k-outer kernel zero-skips sparse activations and cannot be
  // row-partitioned; switch to transpose+blocked only when the extra
  // arithmetic is clearly bought back by tiling and threads.
  if (at_b_blocked_shape(k, m, n) && sampled_dense(a, k, m)) {
    const long long flops = static_cast<long long>(m) * k * n;
    const bool parallel =
        parallel_worthwhile(m, flops) && global_threads() > 1;
    gemm_at_b_blocked(a, b, c, k, m, n, accumulate,
                      parallel ? global_threads() : 1);
    return;
  }
  gemm_at_b_naive(a, b, c, k, m, n, accumulate);
}

bool gemm_at_b_picks_blocked(int k, int m, int n,
                             std::size_t sample_nonzeros) {
  return at_b_blocked_shape(k, m, n) &&
         dense_sample(sample_nonzeros, std::min(k, kDensitySampleRows), m);
}

void gemm_a_bt_auto(const float* a, const float* b, float* c, int m, int k,
                    int n, bool accumulate) {
  if (gemm_a_bt_picks_blocked(m, k, n)) {
    const long long flops = static_cast<long long>(m) * k * n;
    const bool parallel =
        parallel_worthwhile(m, flops) && global_threads() > 1;
    gemm_a_bt_blocked(a, b, c, m, k, n, accumulate,
                      parallel ? global_threads() : 1);
    return;
  }
  gemm_a_bt_naive(a, b, c, m, k, n, accumulate);
}

bool gemm_a_bt_picks_blocked(int m, int k, int n) {
  return k >= 8 && static_cast<long long>(m) * k * n >= 1LL << 14;
}

}  // namespace falvolt::compute
