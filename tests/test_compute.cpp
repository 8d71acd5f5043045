// Tests for the unified compute backend: thread pool semantics, blocked
// kernel correctness against the naive reference, the determinism
// regression (parallel output bit-identical to single-thread output for
// every kernel and for the faulty systolic engine).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compute/gemm_kernels.h"
#include "compute/thread_pool.h"
#include "fault/fault_generator.h"
#include "systolic/faulty_gemm.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace falvolt::compute {
namespace {

using falvolt::testutil::random_tensor;

tensor::Tensor random_spikes(int m, int k, common::Rng& rng, double p = 0.4) {
  tensor::Tensor a({m, k});
  for (auto& v : a) v = rng.bernoulli(p) ? 1.0f : 0.0f;
  return a;
}

void expect_bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, 1, [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int calls = 0;
  pool.parallel_for(0, 100, 1, [&](int lo, int hi) {
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 100);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, 1, [&](int, int) { FAIL(); });
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, 1, [&](int lo, int hi) {
    pool.parallel_for(lo, hi, 1,
                      [&](int l, int h) { total += h - l; });
  });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyGenerations) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    pool.parallel_for(0, 64, 1, [&](int lo, int hi) { total += hi - lo; });
    ASSERT_EQ(total.load(), 64);
  }
}

TEST(ThreadPool, GlobalPoolResize) {
  const int before = global_threads();
  set_global_threads(2);
  EXPECT_EQ(global_threads(), 2);
  set_global_threads(0);  // restore the default sizing
  EXPECT_EQ(global_threads(), default_threads());
  set_global_threads(before);
}

// --------------------------------------------------- kernel correctness

// Double-accumulated reference.
void ref_gemm(const float* a, const float* b, float* c, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class BlockedShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlockedShapes, BlockedMatchesReference) {
  const auto [m, k, n] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n));
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor c({m, n});
  tensor::Tensor ref({m, n});
  gemm_blocked(a.data(), b.data(), c.data(), m, k, n);
  ref_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 2e-3f) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{7, 5, 3},
                      std::tuple{8, 8, 8}, std::tuple{9, 17, 9},
                      std::tuple{33, 70, 23}, std::tuple{64, 300, 40},
                      std::tuple{100, 64, 100}));

TEST(BlockedGemm, AccumulateAddsIntoC) {
  common::Rng rng(11);
  const int m = 12, k = 20, n = 12;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor c({m, n}, 1.0f);
  tensor::Tensor once({m, n});
  gemm_blocked(a.data(), b.data(), once.data(), m, k, n);
  gemm_blocked(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], once[i] + 1.0f, 1e-5f);
  }
}

TEST(BlockedGemm, AtBMatchesNaive) {
  common::Rng rng(12);
  const int k = 37, m = 21, n = 18;
  tensor::Tensor a = random_tensor({k, m}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor c({m, n});
  tensor::Tensor ref({m, n});
  gemm_at_b_blocked(a.data(), b.data(), c.data(), k, m, n);
  gemm_at_b_naive(a.data(), b.data(), ref.data(), k, m, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-4f);
  }
}

TEST(BlockedGemm, ABtMatchesNaive) {
  common::Rng rng(13);
  const int m = 19, k = 41, n = 17;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({n, k}, rng);
  tensor::Tensor c({m, n});
  tensor::Tensor ref({m, n});
  gemm_a_bt_blocked(a.data(), b.data(), c.data(), m, k, n);
  gemm_a_bt_naive(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-4f);
  }
}

// ------------------------------------------------ determinism regression
//
// The library's core reproducibility guarantee: for a fixed seed, the
// parallel kernels and engines produce output BIT-IDENTICAL to their
// single-thread runs, so experiment results never depend on --threads.

class ThreadScope {
 public:
  explicit ThreadScope(int threads) : saved_(global_threads()) {
    set_global_threads(threads);
  }
  ~ThreadScope() { set_global_threads(saved_); }

 private:
  int saved_;
};

TEST(Determinism, BlockedGemmParallelBitIdentical) {
  ThreadScope scope(4);
  common::Rng rng(21);
  const int m = 83, k = 150, n = 37;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor serial({m, n});
  tensor::Tensor parallel({m, n});
  gemm_blocked(a.data(), b.data(), serial.data(), m, k, n, false, 1);
  gemm_blocked(a.data(), b.data(), parallel.data(), m, k, n, false, 4);
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, NaiveGemmParallelBitIdentical) {
  // The auto dispatcher row-partitions the naive kernel for sparse spike
  // inputs; partitioning must not change any row.
  ThreadScope scope(4);
  common::Rng rng(22);
  const int m = 140, k = 90, n = 30;
  tensor::Tensor a = random_spikes(m, k, rng, 0.1);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor serial({m, n});
  gemm_naive(a.data(), b.data(), serial.data(), m, k, n);
  tensor::Tensor parallel({m, n});
  gemm_auto(a.data(), b.data(), parallel.data(), m, k, n);
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, AtBParallelBitIdentical) {
  ThreadScope scope(4);
  common::Rng rng(23);
  const int k = 120, m = 64, n = 33;
  tensor::Tensor a = random_tensor({k, m}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor serial({m, n});
  tensor::Tensor parallel({m, n});
  gemm_at_b_blocked(a.data(), b.data(), serial.data(), k, m, n, false, 1);
  gemm_at_b_blocked(a.data(), b.data(), parallel.data(), k, m, n, false, 4);
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, ABtParallelBitIdentical) {
  ThreadScope scope(4);
  common::Rng rng(24);
  const int m = 90, k = 75, n = 41;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({n, k}, rng);
  tensor::Tensor serial({m, n});
  tensor::Tensor parallel({m, n});
  gemm_a_bt_blocked(a.data(), b.data(), serial.data(), m, k, n, false, 1);
  gemm_a_bt_blocked(a.data(), b.data(), parallel.data(), m, k, n, false, 4);
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, TensorWrappersBitIdenticalAcrossThreadCounts) {
  // The public tensor:: entry points, evaluated under different global
  // pool sizes, must agree bit-for-bit.
  common::Rng rng(25);
  const int m = 96, k = 110, n = 48;
  tensor::Tensor a = random_tensor({m, k}, rng);
  tensor::Tensor b = random_tensor({k, n}, rng);
  tensor::Tensor c1({m, n});
  tensor::Tensor c4({m, n});
  {
    ThreadScope scope(1);
    tensor::gemm(a.data(), b.data(), c1.data(), m, k, n);
  }
  {
    ThreadScope scope(4);
    tensor::gemm(a.data(), b.data(), c4.data(), m, k, n);
  }
  expect_bit_identical(c1, c4);
}

// -------------------------------------------------- cross-tier identity
//
// gemm_auto sends sparse spike inputs to the blocked kernel because,
// within one K panel (k <= 256) and without accumulate, blocked is bitwise
// equal to the zero-skip naive kernel at any density.

// A [m x k] with nonzero entries at rate `density`: ones (spikes) or
// values in [-1, 1] (pixels, pooled rates).
tensor::Tensor sparse_activations(int m, int k, double density, bool binary,
                                  common::Rng& rng) {
  tensor::Tensor a({m, k});
  for (auto& v : a) {
    const bool nz = rng.bernoulli(density);
    const float x = static_cast<float>(rng.uniform(-1.0, 1.0));
    v = nz ? (binary ? 1.0f : x) : 0.0f;
  }
  return a;
}

// C = A B on the first m rows of `a` and the [k x n] matrix `b`.
void expect_blocked_equals_naive(const tensor::Tensor& a,
                                 const tensor::Tensor& b, int m, int k, int n,
                                 const std::string& what) {
  tensor::Tensor naive({m, n});
  tensor::Tensor blocked({m, n});
  gemm_naive(a.data(), b.data(), naive.data(), m, k, n);
  gemm_blocked(a.data(), b.data(), blocked.data(), m, k, n);
  ASSERT_EQ(std::memcmp(naive.data(), blocked.data(),
                        naive.size() * sizeof(float)),
            0)
      << what << " m=" << m << " n=" << n;
}

TEST(CrossTier, BlockedBitwiseEqualsNaiveWithinOnePanel) {
  common::Rng rng(31);
  const int rows = 8192;  // Conv1's row count: many full row blocks
  for (int k : {1, 8, 9, 72, 128, 256}) {
    for (double density : {0.0, 0.05, 0.3, 1.0}) {
      for (bool binary : {true, false}) {
        const tensor::Tensor a =
            sparse_activations(rows, k, density, binary, rng);
        const std::string what = "k=" + std::to_string(k) +
                                 " density=" + std::to_string(density) +
                                 " binary=" + std::to_string(binary);
        for (int n = 1; n <= 17; ++n) {
          const tensor::Tensor b = random_tensor({k, n}, rng);
          // Edge row tiles (m % 8) and edge column tiles (n % 8).
          for (int m = 1; m <= 20; ++m) {
            expect_blocked_equals_naive(a, b, m, k, n, what);
          }
          if (n == 1 || n == 8 || n == 9 || n == 17) {
            expect_blocked_equals_naive(a, b, rows, k, n, what);
          }
        }
      }
    }
  }
}

TEST(CrossTier, AutoDispatchMatchesNaiveOnSparseSpikes) {
  // Spike inputs at density 0.1 through the tensor wrapper, 1 and 4
  // threads: naive's bits in every case. Conv1's forward (8192 x 72 x 8)
  // takes the blocked kernel; with accumulate or a K deeper than one
  // panel, where blocked would differ, the zero-skip kernel must stay.
  struct Case {
    int m, k, n;
    bool accumulate;
  };
  common::Rng rng(32);
  for (const Case& c : {Case{8192, 72, 8, false}, Case{1024, 72, 8, true},
                        Case{1024, 300, 8, false}}) {
    const tensor::Tensor a = sparse_activations(c.m, c.k, 0.1, true, rng);
    const tensor::Tensor b = random_tensor({c.k, c.n}, rng);
    const tensor::Tensor c0 = random_tensor({c.m, c.n}, rng);
    tensor::Tensor naive = c0;
    gemm_naive(a.data(), b.data(), naive.data(), c.m, c.k, c.n,
               c.accumulate);
    for (int threads : {1, 4}) {
      ThreadScope scope(threads);
      tensor::Tensor out = c0;
      tensor::gemm(a.data(), b.data(), out.data(), c.m, c.k, c.n,
                   c.accumulate);
      expect_bit_identical(naive, out);
    }
  }
}

// gemm_a_bt_blocked's per-element dot product, written out as the
// kernel's scalar loop: four partial sums over kk += 4, the tail into s0,
// the fixed combine. Compiled with the same flags as the kernel, so the
// two contract (or do not contract) their multiply-adds alike.
void ref_a_bt(const float* a, const float* b, float* c, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int j = 0; j < n; ++j) {
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
      c[static_cast<std::size_t>(i) * n + j] += (s0 + s1) + (s2 + s3);
    }
  }
}

TEST(CrossTier, ABtLanesBitwiseEqualScalarDot) {
  // k < 32 takes eight output columns per vector (n % 8 columns stay
  // scalar); each lane must reproduce the scalar dot exactly, with and
  // without accumulate, for 1 and 4 threads.
  ThreadScope scope(4);
  common::Rng rng(33);
  const int m = 40;  // >= 2 row grains: 4 threads really split the rows
  for (int k = 1; k < 32; ++k) {
    for (int n = 1; n <= 80; ++n) {
      const tensor::Tensor a = random_tensor({m, k}, rng);
      const tensor::Tensor b = random_tensor({n, k}, rng);
      const tensor::Tensor c0 = random_tensor({m, n}, rng);
      for (bool accumulate : {false, true}) {
        tensor::Tensor ref = accumulate ? c0 : tensor::Tensor({m, n});
        ref_a_bt(a.data(), b.data(), ref.data(), m, k, n);
        for (int threads : {1, 4}) {
          tensor::Tensor c = c0;
          gemm_a_bt_blocked(a.data(), b.data(), c.data(), m, k, n,
                            accumulate, threads);
          ASSERT_EQ(std::memcmp(ref.data(), c.data(),
                                ref.size() * sizeof(float)),
                    0)
              << "k=" << k << " n=" << n << " accumulate=" << accumulate
              << " threads=" << threads;
        }
      }
    }
  }
}

class EngineDeterminism
    : public ::testing::TestWithParam<
          systolic::SystolicGemmEngine::FaultHandling> {};

TEST_P(EngineDeterminism, SystolicEngineParallelBitIdentical) {
  const auto handling = GetParam();
  common::Rng rng(26);
  systolic::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 12, fault::worst_case_spec(cfg.format.total_bits()), rng);
  const int m = 64, k = 20, n = 13;
  tensor::Tensor a = random_spikes(m, k, rng);
  tensor::Tensor w = random_tensor({k, n}, rng, -0.5, 0.5);

  systolic::SystolicGemmEngine serial(cfg, &map, handling);
  serial.set_threads(1);
  tensor::Tensor c_serial({m, n});
  serial.run(a.data(), w.data(), c_serial.data(), m, k, n, "L");

  ThreadScope scope(4);
  systolic::SystolicGemmEngine parallel(cfg, &map, handling);
  tensor::Tensor c_parallel({m, n});
  parallel.run(a.data(), w.data(), c_parallel.data(), m, k, n, "L");

  expect_bit_identical(c_serial, c_parallel);
  // Telemetry is scheduling-independent too: both runs execute the same
  // accumulate steps.
  EXPECT_EQ(serial.accumulate_steps(), parallel.accumulate_steps());
}

INSTANTIATE_TEST_SUITE_P(
    Handling, EngineDeterminism,
    ::testing::Values(
        systolic::SystolicGemmEngine::FaultHandling::kCorrupt,
        systolic::SystolicGemmEngine::FaultHandling::kBypass));

}  // namespace
}  // namespace falvolt::compute
