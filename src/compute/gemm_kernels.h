#pragma once
// Float GEMM kernels for the unified compute backend.
//
// Three tiers:
//
//   *_naive    — the reference loops (i-k-j with a zero-skip fast path for
//                spike inputs; the seed library's kernels).
//   *_blocked  — cache-blocked: B packed into column panels, register
//                tiling over an MR x NR micro-tile, K sliced into panels
//                that fit L1/L2.
//   gemm_auto* — dispatch: picks naive for small/narrow problems, blocked
//                for large ones (and for sparse ones where blocked is
//                bitwise equal to naive), and splits output rows across the
//                global thread pool when the problem is big enough to pay
//                for it.
//
// Determinism: within a tier, kernels partition only output rows and keep
// each row's accumulation schedule fixed, so results are bit-identical for
// any thread count. Across tiers the exact rules are:
//
//   * gemm_blocked == gemm_naive bitwise when k <= 256 (one K panel) and
//     accumulate is false, at any sparsity of A, for finite B whose
//     products with A do not underflow to zero. Both compute each element
//     as the same k-ascending multiply-add chain from +0 (fused or not,
//     as the compiler contracts both alike); the terms naive skips are
//     fma(0, b, acc) == acc exactly, and such a chain never reaches -0.
//     gemm_auto relies on this to send sparse spike inputs to blocked.
//     Deeper K (panels summed as separate partials) or accumulate (C
//     added after the chain, not before) agree only to float tolerance.
//   * gemm_a_bt_blocked runs one fixed dot product per output element:
//     four partial sums over kk += 4, the k % 4 tail into the first, the
//     combine (s0+s1)+(s2+s3). For k < 32 it computes eight output
//     columns per vector, each lane doing that dot's exact operations.
//     The lanes stop at 32 because GCC -O3 with AVX2+FMA compiles the
//     scalar dot for k >= 32 into a vectorized body with UNFUSED mul+add
//     over the first 32*floor(k/32) terms (FMA on the rest), while below
//     32 it is four pure FMA chains. gemm_a_bt_naive uses one running sum
//     and agrees with the blocked tier only to float tolerance.
//   * gemm_at_b_blocked transposes A and runs gemm_blocked; against the
//     zero-skip k-outer gemm_at_b_naive the first rule applies unchanged.
//
// tensor::gemm / gemm_at_b / gemm_a_bt are thin wrappers over the auto
// dispatchers; call the explicit tiers directly only in benches and tests.

#include <cstddef>

namespace falvolt::compute {

// ---------------------------------------------------------------- naive

/// C[m x n] = A[m x k] * B[k x n] (row-major). `accumulate` adds into C.
void gemm_naive(const float* a, const float* b, float* c, int m, int k,
                int n, bool accumulate = false);

/// C[m x n] = A^T * B with A stored [k x m].
void gemm_at_b_naive(const float* a, const float* b, float* c, int k, int m,
                     int n, bool accumulate = false);

/// C[m x n] = A * B^T with B stored [n x k].
void gemm_a_bt_naive(const float* a, const float* b, float* c, int m, int k,
                     int n, bool accumulate = false);

// --------------------------------------------------------------- blocked

/// Cache-blocked C = A * B. `threads` caps how many global-pool workers
/// share the output rows (<= 1 runs serial); results are bit-identical
/// for any count.
void gemm_blocked(const float* a, const float* b, float* c, int m, int k,
                  int n, bool accumulate = false, int threads = 1);

/// Cache-blocked C = A^T * B (A stored [k x m]); transposes A into a
/// scratch buffer, then runs the blocked kernel.
void gemm_at_b_blocked(const float* a, const float* b, float* c, int k,
                       int m, int n, bool accumulate = false,
                       int threads = 1);

/// Cache-blocked C = A * B^T (B stored [n x k]): one four-partial-sum dot
/// per output element; for k < 32, eight output columns per vector over
/// B^T packed once per call.
void gemm_a_bt_blocked(const float* a, const float* b, float* c, int m,
                       int k, int n, bool accumulate = false,
                       int threads = 1);

// --------------------------------------------------------------- dispatch

/// Heuristic dispatchers used by tensor::gemm and friends: naive vs
/// blocked by problem shape, parallel across the global pool when large.
void gemm_auto(const float* a, const float* b, float* c, int m, int k,
               int n, bool accumulate = false);
void gemm_at_b_auto(const float* a, const float* b, float* c, int k, int m,
                    int n, bool accumulate = false);
void gemm_a_bt_auto(const float* a, const float* b, float* c, int m, int k,
                    int n, bool accumulate = false);

/// Rows of A (the first ones) whose density decides between zero-skip and
/// blocked kernels.
inline constexpr int kDensitySampleRows = 32;

/// gemm_at_b_auto's kernel choice, for callers that never materialize A
/// (the direct conv weight gradient): true selects transpose + blocked,
/// false the zero-skip k-outer naive kernel. `sample_nonzeros` counts the
/// nonzero entries of A's first min(k, kDensitySampleRows) rows.
bool gemm_at_b_picks_blocked(int k, int m, int n,
                             std::size_t sample_nonzeros);

/// gemm_a_bt_auto's kernel choice: true selects gemm_a_bt_blocked (the
/// four-partial-sum dot), false gemm_a_bt_naive (one running sum).
bool gemm_a_bt_picks_blocked(int m, int k, int n);

}  // namespace falvolt::compute
