#include "snn/conv2d.h"

#include <gtest/gtest.h>

#include <cstring>

#include "compute/gemm_kernels.h"
#include "compute/thread_pool.h"
#include "fault/fault_generator.h"
#include "systolic/faulty_gemm.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace falvolt::snn {
namespace {

using falvolt::testutil::analytic_grads;
using falvolt::testutil::numeric_grad;
using falvolt::testutil::random_tensor;

TEST(Conv2d, OutputShapeSamePadding) {
  common::Rng rng(1);
  Conv2d conv("c", 2, 4, 3, 1, rng);
  conv.reset_state();
  tensor::Tensor x = random_tensor({3, 2, 8, 8}, rng);
  const tensor::Tensor y = conv.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{3, 4, 8, 8}));
}

TEST(Conv2d, GemmDimensionsExposed) {
  common::Rng rng(2);
  Conv2d conv("c", 2, 4, 3, 1, rng);
  EXPECT_EQ(conv.gemm_k(), 18);  // 2 * 3 * 3
  EXPECT_EQ(conv.gemm_m(), 4);
  EXPECT_EQ(conv.weight_param().value.shape(), (tensor::Shape{18, 4}));
}

TEST(Conv2d, KnownConvolutionResult) {
  common::Rng rng(3);
  Conv2d conv("c", 1, 1, 3, 1, rng, /*bias=*/false);
  // Identity kernel: only the center tap is 1.
  conv.weight_param().value.zero();
  conv.weight_param().value.at2(4, 0) = 1.0f;
  conv.reset_state();
  tensor::Tensor x = random_tensor({1, 1, 5, 5}, rng);
  const tensor::Tensor y = conv.forward(x, 0, Mode::kEval);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, BiasAdds) {
  common::Rng rng(4);
  Conv2d conv("c", 1, 2, 1, 0, rng);
  conv.weight_param().value.zero();
  auto params = conv.params();
  ASSERT_EQ(params.size(), 2u);
  params[1]->value[0] = 1.5f;
  params[1]->value[1] = -0.5f;
  conv.reset_state();
  tensor::Tensor x({1, 1, 2, 2});
  const tensor::Tensor y = conv.forward(x, 0, Mode::kEval);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 1, 1), -0.5f);
}

TEST(Conv2d, InputValidation) {
  common::Rng rng(5);
  Conv2d conv("c", 2, 4, 3, 1, rng);
  conv.reset_state();
  tensor::Tensor wrong_channels({1, 3, 8, 8});
  EXPECT_THROW(conv.forward(wrong_channels, 0, Mode::kEval),
               std::invalid_argument);
  EXPECT_THROW(Conv2d("bad", 0, 1, 3, 1, rng), std::invalid_argument);
}

TEST(Conv2d, WeightGradientMatchesFiniteDifference) {
  common::Rng rng(6);
  Conv2d conv("c", 2, 3, 3, 1, rng);
  const int T = 2;
  std::vector<tensor::Tensor> xs, ys;
  for (int t = 0; t < T; ++t) {
    xs.push_back(random_tensor({2, 2, 5, 5}, rng));
    ys.push_back(random_tensor({2, 3, 5, 5}, rng));
  }
  analytic_grads(conv, xs, ys);
  Param& w = conv.weight_param();
  // Spot check a handful of weights.
  for (const std::size_t i :
       {std::size_t{0}, std::size_t{7}, std::size_t{23}, std::size_t{50},
        w.value.size() - 1}) {
    const double num = numeric_grad(conv, xs, ys, &w.value[i], 1e-3);
    EXPECT_NEAR(w.grad[i], num, 2e-2 * std::max(1.0, std::abs(num))) << i;
  }
}

TEST(Conv2d, InputGradientMatchesFiniteDifference) {
  common::Rng rng(7);
  Conv2d conv("c", 1, 2, 3, 1, rng);
  const int T = 2;
  std::vector<tensor::Tensor> xs, ys;
  for (int t = 0; t < T; ++t) {
    xs.push_back(random_tensor({1, 1, 4, 4}, rng));
    ys.push_back(random_tensor({1, 2, 4, 4}, rng));
  }
  const auto grads = analytic_grads(conv, xs, ys);
  for (int t = 0; t < T; ++t) {
    for (const std::size_t i : {0u, 5u, 15u}) {
      const double num = numeric_grad(conv, xs, ys, &xs[t][i], 1e-3);
      EXPECT_NEAR(grads[t][i], num, 2e-2 * std::max(1.0, std::abs(num)));
    }
  }
}

TEST(Conv2d, BiasGradientIsSumOfOutputGrad) {
  common::Rng rng(8);
  Conv2d conv("c", 1, 1, 1, 0, rng);
  std::vector<tensor::Tensor> xs{random_tensor({1, 1, 3, 3}, rng)};
  std::vector<tensor::Tensor> ys{tensor::Tensor({1, 1, 3, 3}, 1.0f)};
  analytic_grads(conv, xs, ys);
  EXPECT_FLOAT_EQ(conv.params()[1]->grad[0], 9.0f);
}

TEST(Conv2d, GemmEngineIsPluggable) {
  // A counting engine proves the layer routes its GEMM through the hook.
  class CountingEngine final : public GemmEngine {
   public:
    void run(const float* a, const float* w, float* c, int m, int k, int n,
             const std::string& tag) override {
      FloatGemmEngine::instance().run(a, w, c, m, k, n, tag);
      ++calls;
      last_tag = tag;
    }
    int calls = 0;
    std::string last_tag;
  };
  common::Rng rng(9);
  Conv2d conv("my_conv", 1, 2, 3, 1, rng);
  CountingEngine engine;
  conv.set_gemm_engine(&engine);
  conv.reset_state();
  tensor::Tensor x = random_tensor({1, 1, 4, 4}, rng);
  const tensor::Tensor with_engine = conv.forward(x, 0, Mode::kEval);
  EXPECT_EQ(engine.calls, 1);
  EXPECT_EQ(engine.last_tag, "my_conv");
  conv.set_gemm_engine(nullptr);
  conv.reset_state();
  const tensor::Tensor without = conv.forward(x, 0, Mode::kEval);
  EXPECT_EQ(tensor::max_abs_diff(with_engine, without), 0.0);
}

TEST(Conv2d, SpatialSizeChangeMidSequenceThrows) {
  common::Rng rng(10);
  Conv2d conv("c", 1, 1, 3, 1, rng);
  conv.reset_state();
  conv.forward(tensor::Tensor({1, 1, 4, 4}), 0, Mode::kTrain);
  EXPECT_THROW(conv.forward(tensor::Tensor({1, 1, 6, 6}), 1, Mode::kTrain),
               std::invalid_argument);
}

// ------------------------------------------- direct kernels vs lowering
//
// Without a GemmEngine the layer runs direct kernels; they must give the
// bits of the im2col + tensor::gemm / gemm_at_b / gemm_a_bt + col2im
// lowering, spelled out here as the reference.

enum class Input { kSpikes, kDenseSpikes, kPooled, kPixels, kSignedZeros };

tensor::Tensor make_input(Input kind, tensor::Shape shape, common::Rng& rng) {
  tensor::Tensor x(std::move(shape));
  for (auto& v : x) {
    const double u = rng.uniform(0.0, 1.0);
    switch (kind) {
      case Input::kSpikes:  // PLIF output: a few percent firing
        v = u < 0.04 ? 1.0f : 0.0f;
        break;
      case Input::kDenseSpikes:
        v = u < 0.45 ? 1.0f : 0.0f;
        break;
      case Input::kPooled:  // 2x2 average of spikes
        v = static_cast<float>(static_cast<int>(rng.uniform(0.0, 5.0))) * 0.25f;
        break;
      case Input::kPixels:  // glyph pixels: background zeros, real strokes
        v = u < 0.6 ? 0.0f : static_cast<float>(rng.uniform(0.0, 1.0));
        break;
      case Input::kSignedZeros:  // spikes and rates among +0 and -0
        v = u < 0.1   ? 1.0f
            : u < 0.2 ? static_cast<float>(rng.uniform(0.0, 1.0))
            : u < 0.6 ? -0.0f
                      : 0.0f;
        break;
    }
  }
  return x;
}

// col2im as the lowering ran it: output pixels ascending, each scattering
// its in-image taps into the (pre-zeroed) input gradient.
void col2im_ref(const float* cols, const tensor::ConvGeometry& g,
                float* grad) {
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = 0; ox < g.out_w(); ++ox) {
      const float* row =
          cols + (static_cast<std::size_t>(oy) * g.out_w() + ox) *
                     g.patch_size();
      for (int c = 0; c < g.in_channels; ++c) {
        for (int ky = 0; ky < g.kernel_h; ++ky) {
          for (int kx = 0; kx < g.kernel_w; ++kx) {
            const int iy = oy + ky - g.pad;
            const int ix = ox + kx - g.pad;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
            grad[(static_cast<std::size_t>(c) * g.in_h + iy) * g.in_w + ix] +=
                row[(c * g.kernel_h + ky) * g.kernel_w + kx];
          }
        }
      }
    }
  }
}

struct Case {
  Input input;
  int n, cin, cout, size, kernel, pad;
};

struct Lowered {
  std::vector<tensor::Tensor> out, grad_in;
  tensor::Tensor weight_grad, bias_grad;
};

// T steps of forward, then backward for t = T-1..0, through the lowering.
Lowered lowered_run(const tensor::Tensor& w, const tensor::Tensor& bias,
                    const std::vector<tensor::Tensor>& xs,
                    const std::vector<tensor::Tensor>& gys, int kernel,
                    int pad) {
  tensor::ConvGeometry g;
  g.in_channels = xs[0].dim(1);
  g.in_h = xs[0].dim(2);
  g.in_w = xs[0].dim(3);
  g.kernel_h = g.kernel_w = kernel;
  g.pad = pad;
  const int n = xs[0].dim(0);
  const int p = g.out_pixels();
  const int k = g.patch_size();
  const int m = w.dim(1);
  const std::size_t in_plane =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  Lowered r;
  r.weight_grad = tensor::Tensor(w.shape());
  r.bias_grad = tensor::Tensor(bias.shape());
  std::vector<tensor::Tensor> cols;
  for (const tensor::Tensor& x : xs) {
    tensor::Tensor c({n * p, k});
    for (int s = 0; s < n; ++s) {
      tensor::im2col(x.data() + s * in_plane, g,
                     c.data() + static_cast<std::size_t>(s) * p * k);
    }
    tensor::Tensor prod({n * p, m});
    tensor::gemm(c.data(), w.data(), prod.data(), n * p, k, m);
    tensor::Tensor out({n, m, g.out_h(), g.out_w()});
    for (int s = 0; s < n; ++s) {
      for (int pix = 0; pix < p; ++pix) {
        for (int co = 0; co < m; ++co) {
          out[(static_cast<std::size_t>(s) * m + co) * p + pix] =
              prod[(static_cast<std::size_t>(s) * p + pix) * m + co] +
              bias[static_cast<std::size_t>(co)];
        }
      }
    }
    r.out.push_back(std::move(out));
    cols.push_back(std::move(c));
  }
  r.grad_in.resize(xs.size());
  for (int t = static_cast<int>(xs.size()) - 1; t >= 0; --t) {
    const tensor::Tensor& gy = gys[static_cast<std::size_t>(t)];
    tensor::Tensor gm({n * p, m});
    for (int s = 0; s < n; ++s) {
      for (int co = 0; co < m; ++co) {
        for (int pix = 0; pix < p; ++pix) {
          gm[(static_cast<std::size_t>(s) * p + pix) * m + co] =
              gy[(static_cast<std::size_t>(s) * m + co) * p + pix];
        }
      }
    }
    tensor::gemm_at_b(cols[static_cast<std::size_t>(t)].data(), gm.data(),
                      r.weight_grad.data(), n * p, k, m, true);
    for (int row = 0; row < n * p; ++row) {
      for (int co = 0; co < m; ++co) {
        r.bias_grad[static_cast<std::size_t>(co)] +=
            gm[static_cast<std::size_t>(row) * m + co];
      }
    }
    tensor::Tensor dcols({n * p, k});
    tensor::gemm_a_bt(gm.data(), w.data(), dcols.data(), n * p, m, k);
    tensor::Tensor gin(xs[0].shape());
    for (int s = 0; s < n; ++s) {
      col2im_ref(dcols.data() + static_cast<std::size_t>(s) * p * k, g,
                 gin.data() + s * in_plane);
    }
    r.grad_in[static_cast<std::size_t>(t)] = std::move(gin);
  }
  return r;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Runs one sequence through `conv` (kernel and padding as in the
// lowering call) and through the lowering, comparing every output and
// gradient bitwise; then repeats the backward through the first-layer
// entry point, which must accumulate the same parameter grads.
void expect_same_sequence(Conv2d& conv, int pad,
                          const std::vector<tensor::Tensor>& xs,
                          const std::vector<tensor::Tensor>& gys) {
  Param& bias = *conv.params()[1];
  const Lowered ref = lowered_run(conv.weight_param().value, bias.value, xs,
                                  gys, conv.kernel(), pad);
  const int steps = static_cast<int>(xs.size());
  for (Param* p : conv.params()) p->zero_grad();
  conv.reset_state();
  for (int t = 0; t < steps; ++t) {
    const tensor::Tensor y =
        conv.forward(xs[static_cast<std::size_t>(t)], t, Mode::kTrain);
    EXPECT_TRUE(same_bits(y, ref.out[static_cast<std::size_t>(t)]))
        << "forward t=" << t;
  }
  for (int t = steps - 1; t >= 0; --t) {
    const tensor::Tensor gx =
        conv.backward(gys[static_cast<std::size_t>(t)], t);
    EXPECT_TRUE(same_bits(gx, ref.grad_in[static_cast<std::size_t>(t)]))
        << "input grad t=" << t;
  }
  EXPECT_TRUE(same_bits(conv.weight_param().grad, ref.weight_grad));
  EXPECT_TRUE(same_bits(bias.grad, ref.bias_grad));

  for (Param* p : conv.params()) p->zero_grad();
  conv.reset_state();
  for (int t = 0; t < steps; ++t) {
    conv.forward(xs[static_cast<std::size_t>(t)], t, Mode::kTrain);
  }
  for (int t = steps - 1; t >= 0; --t) {
    conv.accumulate_param_grads(gys[static_cast<std::size_t>(t)], t);
  }
  EXPECT_TRUE(same_bits(conv.weight_param().grad, ref.weight_grad));
  EXPECT_TRUE(same_bits(bias.grad, ref.bias_grad));
}

// T = 2 steps of inputs and output gradients for `cs`. Output gradients
// are real-valued with a sprinkle of -0 and +0, like BN/PLIF gradients
// behind inactive units.
void make_sequence(const Case& cs, common::Rng& rng,
                   std::vector<tensor::Tensor>& xs,
                   std::vector<tensor::Tensor>& gys) {
  const int out = cs.size + 2 * cs.pad - cs.kernel + 1;
  xs.clear();
  gys.clear();
  for (int t = 0; t < 2; ++t) {
    xs.push_back(make_input(cs.input, {cs.n, cs.cin, cs.size, cs.size}, rng));
    tensor::Tensor gy = random_tensor({cs.n, cs.cout, out, out}, rng);
    for (auto& v : gy) {
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.1) v = -0.0f;
      else if (u < 0.2) v = 0.0f;
    }
    gys.push_back(std::move(gy));
  }
}

void expect_bitwise(const Case& cs, std::uint64_t seed) {
  SCOPED_TRACE("input " + std::to_string(static_cast<int>(cs.input)) +
               " n " + std::to_string(cs.n) + " cin " +
               std::to_string(cs.cin) + " cout " + std::to_string(cs.cout) +
               " size " + std::to_string(cs.size) + " kernel " +
               std::to_string(cs.kernel) + " pad " + std::to_string(cs.pad));
  common::Rng rng(seed);
  Conv2d conv("c", cs.cin, cs.cout, cs.kernel, cs.pad, rng);
  testutil::fill_random(conv.params()[1]->value, rng, -0.5, 0.5);
  std::vector<tensor::Tensor> xs, gys;
  make_sequence(cs, rng, xs, gys);
  expect_same_sequence(conv, cs.pad, xs, gys);
}

TEST(Conv2dDirect, BitwiseOnDigitGeometry) {
  // SEncConv (1 or 2 input channels, pixels/events), Conv1 (8 channels of
  // spikes, 16x16) and Conv2 (pooled rates, 8x8), at the zoo width 8 and
  // the narrow width 4 some tests build.
  std::uint64_t seed = 100;
  for (const Input input :
       {Input::kSpikes, Input::kPooled, Input::kPixels}) {
    for (const int cin : {1, 2, 8}) {
      for (const int size : {16, 8}) {
        for (const int cout : {8, 4}) {
          expect_bitwise({input, 3, cin, cout, size, 3, 1}, ++seed);
        }
      }
    }
  }
}

TEST(Conv2dDirect, BitwiseOnGestureGeometry) {
  // 24 -> 12 -> 6 -> 3 -> 3; the deep 3x3 layers are small enough for
  // the single-running-sum input-gradient dot.
  std::uint64_t seed = 200;
  for (const int size : {24, 12, 6, 3}) {
    for (const Input input : {Input::kSpikes, Input::kPooled}) {
      expect_bitwise({input, 2, 8, 8, size, 3, 1}, ++seed);
    }
  }
  expect_bitwise({Input::kSpikes, 2, 2, 8, 24, 3, 1}, ++seed);
  expect_bitwise({Input::kSpikes, 1, 8, 8, 3, 3, 1}, ++seed);
}

TEST(Conv2dDirect, BitwiseAtPaddedEdges) {
  // No padding, wider padding, a 5x5 kernel, odd and non-square-friendly
  // widths, and one output channel past a multiple of eight.
  std::uint64_t seed = 300;
  for (const Input input : {Input::kPooled, Input::kPixels}) {
    expect_bitwise({input, 2, 3, 8, 7, 3, 0}, ++seed);
    expect_bitwise({input, 2, 3, 8, 7, 3, 2}, ++seed);
    expect_bitwise({input, 2, 2, 9, 9, 5, 2}, ++seed);
    expect_bitwise({input, 2, 2, 5, 5, 1, 0}, ++seed);
  }
}

TEST(Conv2dDirect, BitwiseOnBlockedWeightGradientBranch) {
  // Dense enough inputs send the lowering's weight gradient to the
  // transpose + blocked kernel; the direct path must notice and follow.
  const Case cs{Input::kDenseSpikes, 8, 8, 8, 16, 3, 1};
  common::Rng rng(400);
  const tensor::Tensor x =
      make_input(cs.input, {cs.n, cs.cin, cs.size, cs.size}, rng);
  tensor::ConvGeometry g;
  g.in_channels = cs.cin;
  g.in_h = g.in_w = cs.size;
  g.kernel_h = g.kernel_w = cs.kernel;
  g.pad = cs.pad;
  tensor::Tensor cols({g.out_pixels(), g.patch_size()});
  tensor::im2col(x.data(), g, cols.data());
  std::size_t nz = 0;
  for (int i = 0; i < compute::kDensitySampleRows * g.patch_size(); ++i) {
    nz += cols[static_cast<std::size_t>(i)] != 0.0f;
  }
  ASSERT_TRUE(compute::gemm_at_b_picks_blocked(
      cs.n * g.out_pixels(), g.patch_size(), cs.cout, nz));
  expect_bitwise(cs, 401);
  for (const Input input : {Input::kPooled, Input::kPixels}) {
    expect_bitwise({input, 8, 8, 8, 16, 3, 1}, 402);
  }
}

TEST(Conv2dDirect, BitwiseAtAnyThreadCount) {
  // Large enough slices run on the global pool; samples and input
  // channels are split, never a sum.
  for (const int threads : {1, 3}) {
    compute::set_global_threads(threads);
    expect_bitwise({Input::kSpikes, 6, 8, 8, 16, 3, 1}, 600);
    expect_bitwise({Input::kPixels, 6, 2, 8, 16, 3, 1}, 601);
  }
  compute::set_global_threads(0);
}

TEST(Conv2dDirect, BitwiseAcrossReusedBuffers) {
  // The layer keeps its padded inputs and backward scratch between
  // sequences; batch sizes that shrink and grow, and an eval pass that
  // releases the buffers, must not leak stale values into any result.
  common::Rng rng(500);
  Conv2d conv("c", 8, 8, 3, 1, rng);
  std::vector<tensor::Tensor> xs, gys;
  for (const int n : {3, 2, 4}) {
    make_sequence({Input::kPooled, n, 8, 8, 16, 3, 1}, rng, xs, gys);
    expect_same_sequence(conv, 1, xs, gys);
  }
  conv.reset_state();
  const tensor::Tensor x = make_input(Input::kPixels, {5, 8, 16, 16}, rng);
  const tensor::Tensor y = conv.forward(x, 0, Mode::kEval);
  std::vector<tensor::Tensor> ys{y};
  const Lowered ref = lowered_run(conv.weight_param().value,
                                  conv.params()[1]->value, {x}, ys, 3, 1);
  EXPECT_TRUE(same_bits(y, ref.out[0]));
  make_sequence({Input::kSpikes, 3, 8, 8, 16, 3, 1}, rng, xs, gys);
  expect_same_sequence(conv, 1, xs, gys);
}

// ------------------------------------------- engine path vs the lowering
//
// With a GemmEngine the layer hands the engine the im2col matrix as
// per-row nonzero lists. On the systolic engine that must give the bits
// of tensor::im2col plus the dense engine.run on the serial reference
// loop, and the same accumulate-step count.

using Handling = systolic::SystolicGemmEngine::FaultHandling;

// One fault-free, one corrupting and one bypassing engine per format on
// an 8x8 array: every zoo K folds over several tiles or leaves padding
// rows, and with Cout > 8 output columns fold onto the PE columns.
struct Chip {
  systolic::ArrayConfig cfg;
  fault::FaultMap map{8, 8};
  const fault::FaultMap* faults = nullptr;
  Handling handling = Handling::kCorrupt;
};

std::vector<Chip> chips(const fx::FixedFormat& format, std::uint64_t seed) {
  common::Rng rng(seed);
  fault::FaultSpec spec;
  spec.word_bits = format.total_bits();
  spec.random_type = true;
  spec.bits_per_pe = 2;
  std::vector<Chip> out(3);
  for (Chip& chip : out) {
    chip.cfg.rows = chip.cfg.cols = 8;
    chip.cfg.format = format;
    chip.map = fault::random_fault_map(8, 8, 12, spec, rng);
  }
  out[1].faults = &out[1].map;
  out[2].faults = &out[2].map;
  out[2].handling = Handling::kBypass;
  return out;
}

void expect_engine_bitwise(const Case& cs, const Chip& chip, int threads,
                           std::uint64_t seed, float weight_scale = 1.0f) {
  SCOPED_TRACE("input " + std::to_string(static_cast<int>(cs.input)) +
               " n " + std::to_string(cs.n) + " cin " +
               std::to_string(cs.cin) + " cout " + std::to_string(cs.cout) +
               " size " + std::to_string(cs.size) + " kernel " +
               std::to_string(cs.kernel) + " pad " + std::to_string(cs.pad) +
               " " + chip.cfg.format.to_string() + " faults " +
               std::to_string(chip.faults != nullptr) + " bypass " +
               std::to_string(chip.handling == Handling::kBypass) +
               " threads " + std::to_string(threads));
  common::Rng rng(seed);
  Conv2d conv("c", cs.cin, cs.cout, cs.kernel, cs.pad, rng);
  for (auto& w : conv.weight_param().value) w *= weight_scale;
  testutil::fill_random(conv.params()[1]->value, rng, -0.5, 0.5);
  const tensor::Tensor x =
      make_input(cs.input, {cs.n, cs.cin, cs.size, cs.size}, rng);

  systolic::SystolicGemmEngine lists(chip.cfg, chip.faults, chip.handling);
  lists.set_force_scalar(false);
  lists.set_threads(threads);
  conv.set_gemm_engine(&lists);
  conv.reset_state();
  const tensor::Tensor y = conv.forward(x, 0, Mode::kEval);

  tensor::ConvGeometry g;
  g.in_channels = cs.cin;
  g.in_h = g.in_w = cs.size;
  g.kernel_h = g.kernel_w = cs.kernel;
  g.pad = cs.pad;
  const int p = g.out_pixels();
  const int k = g.patch_size();
  const int m = cs.cout;
  tensor::Tensor cols({cs.n * p, k});
  for (int s = 0; s < cs.n; ++s) {
    tensor::im2col(x.data() + static_cast<std::size_t>(s) * cs.cin *
                                  cs.size * cs.size,
                   g, cols.data() + static_cast<std::size_t>(s) * p * k);
  }
  systolic::SystolicGemmEngine dense(chip.cfg, chip.faults, chip.handling);
  dense.set_force_scalar(true);
  dense.set_threads(1);
  tensor::Tensor prod({cs.n * p, m});
  dense.run(cols.data(), conv.weight_param().value.data(), prod.data(),
            cs.n * p, k, m, "c");
  const tensor::Tensor& bias = conv.params()[1]->value;
  tensor::Tensor ref(y.shape());
  for (int s = 0; s < cs.n; ++s) {
    for (int pix = 0; pix < p; ++pix) {
      for (int co = 0; co < m; ++co) {
        ref[(static_cast<std::size_t>(s) * m + co) * p + pix] =
            prod[(static_cast<std::size_t>(s) * p + pix) * m + co] +
            bias[static_cast<std::size_t>(co)];
      }
    }
  }
  EXPECT_TRUE(same_bits(y, ref));
  EXPECT_EQ(lists.accumulate_steps(), dense.accumulate_steps());
  EXPECT_EQ(lists.path_counts().reference_rows, 0u);
}

constexpr Input kEngineInputs[] = {Input::kSpikes, Input::kPooled,
                                   Input::kPixels, Input::kSignedZeros};

TEST(Conv2dEngine, SpikeListsMatchLoweringOnDigitGeometry) {
  // SEncConv (1 or 2 channels of pixels/events), Conv1 (8 channels of
  // spikes, 16x16) and Conv2 (pooled rates, 8x8).
  std::uint64_t seed = 700;
  for (const Chip& chip : chips(fx::FixedFormat::q8_8(), 70)) {
    for (const Input input : kEngineInputs) {
      for (const int cin : {1, 2, 8}) {
        for (const int size : {16, 8}) {
          expect_engine_bitwise({input, 2, cin, 8, size, 3, 1}, chip, 1,
                                ++seed);
        }
      }
    }
  }
}

TEST(Conv2dEngine, SpikeListsMatchLoweringOnGestureGeometry) {
  std::uint64_t seed = 800;
  for (const Chip& chip : chips(fx::FixedFormat::q8_8(), 80)) {
    for (const int size : {24, 12, 6, 3}) {
      for (const Input input : kEngineInputs) {
        expect_engine_bitwise({input, 2, 8, 8, size, 3, 1}, chip, 1, ++seed);
      }
    }
    expect_engine_bitwise({Input::kSpikes, 2, 2, 8, 24, 3, 1}, chip, 1,
                          ++seed);
  }
}

TEST(Conv2dEngine, SpikeListsMatchLoweringAtEdges) {
  // Padding 0/1/2, kernels 1/3/5, and Cout 5/8/10: the 8-column groups
  // carry unused lanes past Cout.
  std::uint64_t seed = 900;
  for (const Chip& chip : chips(fx::FixedFormat::q8_8(), 90)) {
    for (const Input input : kEngineInputs) {
      for (const int cout : {5, 8, 10}) {
        expect_engine_bitwise({input, 2, 3, cout, 7, 3, 0}, chip, 1, ++seed);
        expect_engine_bitwise({input, 2, 3, cout, 7, 3, 2}, chip, 1, ++seed);
        expect_engine_bitwise({input, 2, 2, cout, 9, 5, 2}, chip, 1, ++seed);
        expect_engine_bitwise({input, 2, 2, cout, 5, 1, 0}, chip, 1, ++seed);
      }
    }
  }
}

TEST(Conv2dEngine, SpikeListsMatchLoweringInEveryFormat) {
  // Q16.16 with weights large enough that its sums saturate, and the
  // narrow Q5.4 and Q0.7 where most accumulate chains saturate.
  std::uint64_t seed = 1000;
  const std::pair<fx::FixedFormat, float> formats[] = {
      {fx::FixedFormat::q16_16(), 12000.0f},
      {fx::FixedFormat(10, 4), 20.0f},
      {fx::FixedFormat(8, 7), 1.0f}};
  for (const auto& [format, scale] : formats) {
    for (const Chip& chip : chips(format, seed)) {
      for (const Input input : kEngineInputs) {
        expect_engine_bitwise({input, 2, 8, 10, 8, 3, 1}, chip, 1, ++seed,
                              scale);
        expect_engine_bitwise({input, 2, 2, 5, 9, 5, 2}, chip, 1, ++seed,
                              scale);
      }
    }
  }
}

TEST(Conv2dEngine, SpikeListsMatchLoweringAtAnyThreadCount) {
  std::uint64_t seed = 1100;
  for (const int threads : {1, 3}) {
    for (const Chip& chip : chips(fx::FixedFormat::q8_8(), 110)) {
      for (const Input input : kEngineInputs) {
        expect_engine_bitwise({input, 5, 8, 10, 16, 3, 1}, chip, threads,
                              ++seed);
      }
    }
  }
}

}  // namespace
}  // namespace falvolt::snn
