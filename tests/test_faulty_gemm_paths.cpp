// Bit-identity of the 8-lane fault-event kernel against the
// forced-scalar reference (FALVOLT_FORCE_SCALAR / set_force_scalar):
// the same engine must produce byte-for-byte identical output tables
// and identical accumulate_steps telemetry on both paths, with A given
// dense (run) or as per-row nonzero lists (run_sparse), across fault
// handling modes, saturating and non-saturating fixed-point formats,
// folding/padding shapes, events on and between nonzero positions, and
// activation kinds (binary spikes, encoder pixels, average-pooled spike
// rates).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

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

// Run the case on a fresh engine — the kernel, then forced-scalar, then
// the kernel again on the rows as nonzero lists — and require
// byte-identical tables and equal step telemetry. Only the forced run may
// use the serial reference loop. Returns the first run's path counts.
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

  // The same rows as nonzero lists, through the kernel.
  std::vector<int> row_ptr{0}, cols;
  std::vector<float> vals;
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      if (pc.a.at2(i, kk) == 0.0f) continue;
      cols.push_back(kk);
      vals.push_back(pc.a.at2(i, kk));
    }
    row_ptr.push_back(static_cast<int>(cols.size()));
  }
  tensor::Tensor c_list({m, n});
  engine.set_force_scalar(false);
  const std::uint64_t s2 = engine.accumulate_steps();
  engine.run_sparse(row_ptr.data(), cols.data(), vals.data(), pc.w.data(),
                    c_list.data(), m, k, n, "L");
  EXPECT_EQ(0, std::memcmp(c_list.data(), c_ref.data(),
                           static_cast<std::size_t>(m) * n * sizeof(float)));
  EXPECT_EQ(engine.accumulate_steps() - s2, ref_steps);
  return fast;
}

fx::StuckBits stuck_bit(int bit, fx::StuckType type) {
  fx::StuckBits bits;
  bits.set(bit, type);
  return bits;
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
  // column sums routinely exceed the raw bound, so some columns saturate
  // mid-chain while others never do, side by side in one lane group.
  common::Rng rng(31);
  PathCase pc;
  pc.cfg.rows = pc.cfg.cols = 16;
  pc.cfg.format = fx::FixedFormat(10, 4);
  pc.a = random_spikes(10, 100, rng, 0.6);
  pc.w = random_tensor({100, 12}, rng, -0.9, 0.9);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, DeliberatelySaturatingWeights) {
  // Every column saturates, most steps clamping: the lanes' add-then-
  // clamp must match the reference's saturating add exactly.
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
  EXPECT_EQ(fast.vector_rows + fast.scalar_rows, 12u);
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
  // n = 27: three full 8-column groups plus one with 3 of its lanes in
  // use, with output columns folding onto 8 PE columns.
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

TEST(FaultyGemmPaths, EventsOnSpikePositionsAndSharedByLanes) {
  // Rows whose nonzeros sit exactly on faulty positions (the add comes
  // before the corruption there) and between them, with several lanes of
  // one 8-column group faulty at the same position and lanes with
  // different events at one position.
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  fault::FaultMap map(8, 8);
  for (const int col : {0, 2, 5, 7}) {
    map.add(3, col, stuck_bit(14, fx::StuckType::kStuckAt1));
  }
  map.add(3, 1, stuck_bit(13, fx::StuckType::kStuckAt0));
  map.add(5, 1, stuck_bit(9, fx::StuckType::kStuckAt1));
  map.add(0, 4, stuck_bit(15, fx::StuckType::kStuckAt1));
  map.add(7, 6, stuck_bit(2, fx::StuckType::kStuckAt0));
  common::Rng rng(45);
  PathCase pc;
  pc.cfg = cfg;
  pc.map = &map;
  pc.a = tensor::Tensor({6, 20});
  // Spikes on the faulty positions 3, 11 (3 + 8), 0, 16 and 5, a pooled
  // rate on 13, and rows with nothing, everything, or nothing faulty.
  for (const int kk : {3, 11}) pc.a.at2(0, kk) = 1.0f;
  for (const int kk : {0, 3, 5, 16}) pc.a.at2(1, kk) = 1.0f;
  pc.a.at2(1, 13) = 0.75f;
  for (const int kk : {1, 2, 4, 9}) pc.a.at2(2, kk) = 1.0f;
  for (int kk = 0; kk < 20; ++kk) pc.a.at2(4, kk) = 1.0f;
  for (int kk = 0; kk < 20; ++kk) pc.a.at2(5, kk) = kk % 3 == 0 ? 0.5f : 0.0f;
  pc.w = random_tensor({20, 13}, rng, -0.9, 0.9);
  expect_paths_identical(pc);
  // A strongly negative sum, so the sign-bit events flip it.
  pc.w = random_tensor({20, 13}, rng, -0.9, -0.4);
  expect_paths_identical(pc);
}

TEST(FaultyGemmPaths, EventsInPaddingRowsAfterTheLastNonzero) {
  // k = 5 on an 8x8 array: positions 5..7 are padding rows. Every lane of
  // the first group has an event there, some at the same position, and
  // a second fold (k = 13) puts padding events behind a real tile.
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  fault::FaultMap map(8, 8);
  for (int col = 0; col < 8; ++col) {
    map.add(5 + col % 3, col,
            stuck_bit(col % 2 ? 15 : 6, col % 4 < 2 ? fx::StuckType::kStuckAt1
                                                    : fx::StuckType::kStuckAt0));
  }
  map.add(2, 3, stuck_bit(12, fx::StuckType::kStuckAt1));
  common::Rng rng(46);
  for (const int k : {5, 13}) {
    PathCase pc;
    pc.cfg = cfg;
    pc.map = &map;
    pc.a = random_spikes(9, k, rng, 0.5);
    for (int kk = 0; kk < k; ++kk) pc.a.at2(0, kk) = 0.0f;  // empty row
    pc.w = random_tensor({k, 11}, rng, -0.6, 0.6);
    expect_paths_identical(pc);
    pc.handling = SystolicGemmEngine::FaultHandling::kBypass;
    expect_paths_identical(pc);
  }
}

TEST(FaultyGemmPaths, Q16_16SaturatesOnAddAndMultiply) {
  // Q16.16 (max 32768): weights near 20000 overflow the add after two
  // spikes, and activations above 1 push single products past the bound,
  // with sign-bit and low-bit faults on top. Words this wide take the
  // lanes with the format's own add and multiply.
  common::Rng rng(47);
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  cfg.format = fx::FixedFormat::q16_16();
  fault::FaultSpec spec;
  spec.word_bits = 32;
  spec.random_type = true;
  spec.bits_per_pe = 2;
  const fault::FaultMap map = fault::random_fault_map(8, 8, 10, spec, rng);
  for (const auto handling : {SystolicGemmEngine::FaultHandling::kCorrupt,
                              SystolicGemmEngine::FaultHandling::kBypass}) {
    PathCase pc;
    pc.cfg = cfg;
    pc.map = &map;
    pc.handling = handling;
    pc.a = random_spikes(8, 24, rng, 0.6);
    for (int kk = 0; kk < 24; kk += 3) pc.a.at2(2, kk) = 3.5f;
    for (int kk = 1; kk < 24; kk += 2) pc.a.at2(5, kk) = -2.25f;
    pc.a.at2(6, 7) = 40000.0f;  // quantizes to the format's max
    pc.w = random_tensor({24, 10}, rng, -25000.0, 25000.0);
    const SystolicGemmEngine::PathCounts fast = expect_paths_identical(pc);
    EXPECT_EQ(fast.scalar_rows, 8u);
    EXPECT_EQ(fast.real_rows, 3u);
  }
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
  // Binary spike rows, then pooled-rate rows (multiplying lanes).
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
