#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/gemm.h"

namespace falvolt::tensor {
namespace {

// Direct convolution reference (stride 1).
Tensor ref_conv(const Tensor& input, const Tensor& weight,
                const ConvGeometry& g, int out_channels) {
  Tensor out({out_channels, g.out_h(), g.out_w()});
  for (int oc = 0; oc < out_channels; ++oc) {
    for (int oy = 0; oy < g.out_h(); ++oy) {
      for (int ox = 0; ox < g.out_w(); ++ox) {
        double acc = 0.0;
        int col = 0;
        for (int c = 0; c < g.in_channels; ++c) {
          for (int ky = 0; ky < g.kernel_h; ++ky) {
            for (int kx = 0; kx < g.kernel_w; ++kx, ++col) {
              const int iy = oy * g.stride + ky - g.pad;
              const int ix = ox * g.stride + kx - g.pad;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
              acc += static_cast<double>(
                         input[(static_cast<std::size_t>(c) * g.in_h + iy) *
                                   g.in_w +
                               ix]) *
                     weight.at2(col, oc);
            }
          }
        }
        out[(static_cast<std::size_t>(oc) * g.out_h() + oy) * g.out_w() +
            ox] = static_cast<float>(acc);
      }
    }
  }
  return out;
}

ConvGeometry make_geom(int c, int h, int w, int kernel, int pad) {
  ConvGeometry g;
  g.in_channels = c;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = kernel;
  g.kernel_w = kernel;
  g.stride = 1;
  g.pad = pad;
  return g;
}

TEST(Im2col, GeometryMath) {
  const ConvGeometry g = make_geom(3, 16, 16, 3, 1);
  EXPECT_EQ(g.out_h(), 16);
  EXPECT_EQ(g.out_w(), 16);
  EXPECT_EQ(g.patch_size(), 27);
  EXPECT_EQ(g.out_pixels(), 256);
}

TEST(Im2col, NoPadShrinksOutput) {
  const ConvGeometry g = make_geom(1, 5, 5, 3, 0);
  EXPECT_EQ(g.out_h(), 3);
  EXPECT_EQ(g.out_w(), 3);
}

TEST(Im2col, IdentityKernelExtractsCenter) {
  const ConvGeometry g = make_geom(1, 4, 4, 1, 0);
  Tensor in({1, 4, 4});
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i);
  Tensor cols({g.out_pixels(), g.patch_size()});
  im2col(in.data(), g, cols.data());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(cols[i], static_cast<float>(i));
}

TEST(Im2col, PaddingReadsZero) {
  const ConvGeometry g = make_geom(1, 2, 2, 3, 1);
  Tensor in({1, 2, 2}, {1, 2, 3, 4});
  Tensor cols({g.out_pixels(), g.patch_size()});
  im2col(in.data(), g, cols.data());
  // Output pixel (0,0): its 3x3 window's top row is entirely padding.
  EXPECT_EQ(cols.at2(0, 0), 0.0f);
  EXPECT_EQ(cols.at2(0, 1), 0.0f);
  EXPECT_EQ(cols.at2(0, 4), 1.0f);  // window center = input (0,0)
}

TEST(Im2col, GemmEquivalentToDirectConv) {
  common::Rng rng(21);
  const ConvGeometry g = make_geom(2, 8, 8, 3, 1);
  const int out_channels = 4;
  Tensor in({2, 8, 8});
  for (auto& v : in) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  Tensor w({g.patch_size(), out_channels});
  for (auto& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Tensor cols({g.out_pixels(), g.patch_size()});
  im2col(in.data(), g, cols.data());
  const Tensor prod = matmul(cols, w);  // [pixels x out_channels]

  const Tensor ref = ref_conv(in, w, g, out_channels);
  for (int oc = 0; oc < out_channels; ++oc) {
    for (int pix = 0; pix < g.out_pixels(); ++pix) {
      EXPECT_NEAR(prod.at2(pix, oc),
                  ref[static_cast<std::size_t>(oc) * g.out_pixels() + pix],
                  1e-4f);
    }
  }
}

}  // namespace
}  // namespace falvolt::tensor
