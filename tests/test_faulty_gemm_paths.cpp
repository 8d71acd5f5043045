// Bit-identity of the vectorized saturation-free fast path against the
// forced-scalar reference (FALVOLT_FORCE_SCALAR / set_force_scalar):
// the same engine must produce byte-for-byte identical output tables
// and identical accumulate_steps telemetry on both paths, across fault
// handling modes, fixed-point formats that straddle the overflow
// headroom proof, folding/padding shapes, and activation kinds (binary
// spikes, encoder pixels, average-pooled spike rates).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "common/rng.h"
#include "fault/fault_generator.h"
#include "systolic/faulty_gemm.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace falvolt::systolic {
namespace {

using falvolt::testutil::random_tensor;

tensor::Tensor random_spikes(int m, int k, common::Rng& rng, double p = 0.4) {
  tensor::Tensor a({m, k});
  for (auto& v : a) v = rng.bernoulli(p) ? 1.0f : 0.0f;
  return a;
}

struct PathCase {
  ArrayConfig cfg;
  const fault::FaultMap* map = nullptr;
  SystolicGemmEngine::FaultHandling handling =
      SystolicGemmEngine::FaultHandling::kCorrupt;
  tensor::Tensor a;
  tensor::Tensor w;
};

// Average-pooled spike rates of a 2x2 pool: each activation is one of
// {0, 0.25, 0.5, 0.75, 1}, so rows mix exact zeros, exact 1.0f and
// real values — the Conv2/FC1 input mix of the digit classifier.
tensor::Tensor pooled_rates(int m, int k, common::Rng& rng) {
  tensor::Tensor a({m, k});
  for (auto& v : a) v = 0.25f * static_cast<float>(rng.uniform_int(0, 4));
  return a;
}

// Run the case on a fresh engine twice — fast paths then forced-scalar —
// and require byte-identical tables and equal step telemetry. Only the
// forced run may use the serial reference loop. Returns the fast run's
// path counts.
SystolicGemmEngine::PathCounts expect_paths_identical(const PathCase& pc) {
  const int m = pc.a.shape()[0], k = pc.a.shape()[1], n = pc.w.shape()[1];
  SystolicGemmEngine engine(pc.cfg, pc.map, pc.handling);
  tensor::Tensor c_vec({m, n});
  engine.set_force_scalar(false);
  const std::uint64_t s0 = engine.accumulate_steps();
  engine.run(pc.a.data(), pc.w.data(), c_vec.data(), m, k, n, "L");
  const std::uint64_t vec_steps = engine.accumulate_steps() - s0;
  const SystolicGemmEngine::PathCounts fast = engine.path_counts();
  EXPECT_EQ(fast.reference_rows, 0u);

  tensor::Tensor c_ref({m, n});
  engine.set_force_scalar(true);
  const std::uint64_t s1 = engine.accumulate_steps();
  engine.run(pc.a.data(), pc.w.data(), c_ref.data(), m, k, n, "L");
  const std::uint64_t ref_steps = engine.accumulate_steps() - s1;
  EXPECT_EQ(engine.path_counts().reference_rows,
            static_cast<std::uint64_t>(m));

  EXPECT_EQ(0, std::memcmp(c_vec.data(), c_ref.data(),
                           static_cast<std::size_t>(m) * n * sizeof(float)));
  EXPECT_EQ(vec_steps, ref_steps);
  return fast;
}

TEST(FaultyGemmPaths, CleanChipBinarySpikes) {
  common::Rng rng(11);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 8;
  pc.a = random_spikes(16, 24, rng);
  pc.w = random_tensor({24, 13}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, RandomFaultMapsCorruptAndBypass) {
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    common::Rng rng(seed);
    ArrayConfig cfg;
    cfg.rows = cfg.cols = 8;
    const fault::FaultMap map = fault::random_fault_map(
        8, 8, static_cast<int>(1 + seed % 10),
        fault::worst_case_spec(cfg.format.total_bits()), rng);
    for (const auto handling :
         {SystolicGemmEngine::FaultHandling::kCorrupt,
          SystolicGemmEngine::FaultHandling::kBypass}) {
      PathCase pc;
      pc.cfg = cfg;
      pc.map = &map;
      pc.handling = handling;
      pc.a = random_spikes(12, 40, rng);
      pc.w = random_tensor({40, 11}, rng, -0.5, 0.5);
      expect_paths_identical(pc);
    }
  }
}

TEST(FaultyGemmPaths, NarrowFormatStraddlesHeadroomProof) {
  // 10-bit format, max_raw = 511: at k=100 binary spikes the |qweight|
  // column sums routinely exceed the headroom bound, so some columns
  // take the saturating reference while others pass the proof — the
  // exact boundary the fast path must get right.
  common::Rng rng(31);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 16;
  pc.cfg.format = fx::FixedFormat(10, 4);
  pc.a = random_spikes(10, 100, rng, 0.6);
  pc.w = random_tensor({100, 12}, rng, -0.9, 0.9);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, DeliberatelySaturatingWeights) {
  // Every column saturates: the headroom proof must reject them all and
  // the result must still match the reference exactly.
  common::Rng rng(32);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 8;
  pc.cfg.format = fx::FixedFormat(10, 4);
  pc.a = tensor::Tensor({6, 64}, 1.0f);
  pc.w = tensor::Tensor({64, 9}, 1.9f);  // q = 30; 64 * 30 >> 511
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, SaturatingWithFaultsCorrupt) {
  common::Rng rng(33);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  cfg.format = fx::FixedFormat(12, 5);
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 6, fault::worst_case_spec(cfg.format.total_bits()), rng);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_spikes(8, 80, rng, 0.7);
  pc.w = random_tensor({80, 10}, rng, -1.5, 1.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, FoldingKLargerThanRows) {
  // k = 70 on a 16x16 array: the psum traverses the PE column 5 times
  // (padded_k = 80), so fault events repeat per fold.
  common::Rng rng(34);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 16;
  const fault::FaultMap map = fault::random_fault_map(
      16, 16, 12, fault::worst_case_spec(cfg.format.total_bits()), rng);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_spikes(9, 70, rng);
  pc.w = random_tensor({70, 20}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, PaddingKSmallerThanRows) {
  // k = 3 on an 8x8 array: positions 3..7 are padding rows whose faults
  // still corrupt the passing psum.
  common::Rng rng(35);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  fault::FaultMap map(8, 8);
  fx::StuckBits bits;
  bits.set(15, fx::StuckType::kStuckAt1);
  map.add(6, 2, bits);  // padding row of PE column 2
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_spikes(5, 3, rng, 0.8);
  pc.w = random_tensor({3, 8}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, RealValuedActivationsQuantizedOncePerRow) {
  common::Rng rng(36);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 4, fault::worst_case_spec(cfg.format.total_bits()), rng);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_tensor({7, 30}, rng, 0.0, 1.0);  // encoder-style pixels
  pc.w = random_tensor({30, 9}, rng, -0.5, 0.5);
  EXPECT_EQ(expect_paths_identical(pc).real_rows, 7u);
}

TEST(FaultyGemmPaths, PooledRateRowsMixZerosOnesAndRates) {
  common::Rng rng(40);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 8;
  pc.a = pooled_rates(12, 36, rng);
  pc.w = random_tensor({36, 11}, rng, -0.5, 0.5);
  const SystolicGemmEngine::PathCounts fast = expect_paths_identical(pc);
  // A row of only zeros and ones is binary; with 36 draws from five
  // values every row here holds a real rate.
  EXPECT_EQ(fast.real_rows, 12u);
  EXPECT_EQ(fast.vector_cols + fast.scalar_cols + fast.fallback_cols, 0u);
}

TEST(FaultyGemmPaths, PooledRateRowsWorstCaseFaultsFolding) {
  // k = 75 on a 16x16 array folds the psum over 5 tiles; the worst-case
  // map puts an event on most PE columns, in both handling modes.
  for (std::uint64_t seed = 41; seed < 44; ++seed) {
    common::Rng rng(seed);
    ArrayConfig cfg;
    cfg.rows = cfg.cols = 16;
    const fault::FaultMap map = fault::random_fault_map(
        16, 16, 24, fault::worst_case_spec(cfg.format.total_bits()), rng);
    for (const auto handling :
         {SystolicGemmEngine::FaultHandling::kCorrupt,
          SystolicGemmEngine::FaultHandling::kBypass}) {
      PathCase pc;
      pc.cfg = cfg;
      pc.map = &map;
      pc.handling = handling;
      pc.a = pooled_rates(10, 75, rng);
      pc.w = random_tensor({75, 21}, rng, -0.8, 0.8);
      expect_paths_identical(pc);
    }
  }
}

TEST(FaultyGemmPaths, PooledRateRowsNarrowFormatSaturates) {
  // 10-bit Q5.4 (max_raw = 511): weights in [1.0, 1.9] (q = 16..30)
  // over 64 inputs at rates up to 1 drive the accumulate chain far past
  // the raw bound, so most steps saturate.
  common::Rng rng(44);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 8;
  pc.cfg.format = fx::FixedFormat(10, 4);
  pc.a = pooled_rates(6, 64, rng);
  pc.w = random_tensor({64, 9}, rng, 1.0, 1.9);
  expect_paths_identical(pc);
  // Q0.7 cannot represent 1.0 (it quantizes to 127/128), so a 1.0f
  // activation must add its weight unmultiplied, as in the reference.
  pc.cfg.format = fx::FixedFormat(8, 7);
  pc.w = random_tensor({64, 9}, rng, -0.9, 0.9);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, MixedBinaryAndRealRows) {
  common::Rng rng(37);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 8;
  pc.a = random_spikes(10, 25, rng);
  for (int kk = 0; kk < 25; ++kk) pc.a.at2(4, kk) = 0.37f;  // one real row
  pc.w = random_tensor({25, 10}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, WideNExercisesSimdGroupsAndTail) {
  // n = 27: three full 8-column SIMD groups plus a 3-column tail, with
  // output columns folding onto 8 PE columns.
  common::Rng rng(38);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 3, fault::worst_case_spec(cfg.format.total_bits()), rng);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = random_spikes(14, 32, rng);
  pc.w = random_tensor({32, 27}, rng, -0.5, 0.5);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, ForceScalarEnvPickup) {
  ::setenv("FALVOLT_FORCE_SCALAR", "1", 1);
  {
    SystolicGemmEngine engine(ArrayConfig{}, nullptr);
    EXPECT_TRUE(engine.force_scalar());
  }
  ::setenv("FALVOLT_FORCE_SCALAR", "0", 1);
  {
    SystolicGemmEngine engine(ArrayConfig{}, nullptr);
    EXPECT_FALSE(engine.force_scalar());
  }
  ::unsetenv("FALVOLT_FORCE_SCALAR");
  {
    SystolicGemmEngine engine(ArrayConfig{}, nullptr);
    EXPECT_FALSE(engine.force_scalar());
  }
}

TEST(FaultyGemmPaths, ThreadedRunMatchesSerialOnBothPaths) {
  common::Rng rng(39);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 5, fault::worst_case_spec(cfg.format.total_bits()), rng);
  // Binary spike rows, then pooled-rate rows (the real-row path).
  for (const tensor::Tensor& a :
       {random_spikes(33, 40, rng), pooled_rates(33, 40, rng)}) {
    const tensor::Tensor w = random_tensor({40, 12}, rng, -0.5, 0.5);
    for (const bool scalar : {false, true}) {
      SystolicGemmEngine serial(cfg, &map);
      serial.set_threads(1);
      serial.set_force_scalar(scalar);
      tensor::Tensor c1({33, 12});
      serial.run(a.data(), w.data(), c1.data(), 33, 40, 12, "L");
      SystolicGemmEngine pooled(cfg, &map);
      pooled.set_threads(4);
      pooled.set_force_scalar(scalar);
      tensor::Tensor c2({33, 12});
      pooled.run(a.data(), w.data(), c2.data(), 33, 40, 12, "L");
      EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(),
                               33u * 12u * sizeof(float)));
      EXPECT_EQ(serial.accumulate_steps(), pooled.accumulate_steps());
    }
  }
}

}  // namespace
}  // namespace falvolt::systolic
