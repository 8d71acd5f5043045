#include "snn/conv2d.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "compute/gemm_kernels.h"
#include "compute/simd.h"
#include "compute/thread_pool.h"
#include "tensor/gemm.h"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"  // see compute/simd.h
#endif

namespace falvolt::snn {

namespace {

using compute::load8;
using compute::store8;
using compute::Vf8;

constexpr int kLanes = 8;

int round_up(int v, int m) { return (v + m - 1) / m * m; }

// Runs body(lo, hi) over the slices [0, count) (samples or channels), on
// the global pool when `work` (multiply-adds) pays for the hand-off and
// inline otherwise. Every slice writes only its own outputs, so the bits
// do not depend on the split or the thread count.
void for_slices(int count, long long work,
                const std::function<void(int, int)>& body) {
  constexpr long long kParallelWork = 1LL << 18;
  const int threads = compute::global_threads();
  if (threads > 1 && count > 1 && work >= kParallelWork) {
    compute::global_pool().parallel_for(0, count,
                                        (count + threads - 1) / threads, body);
  } else {
    body(0, count);
  }
}

// Zero-padded input planes, one per (sample, channel): input (iy, ix)
// sits at (iy + pad, ix + pad) of a row `width` floats wide. Output pixel
// (oy, ox) is flat position q = oy * width + ox, and reads tap (ky, kx)
// at q + ky * width + kx. The forward computes every q in [0, span) eight
// at a time and discards the columns ox >= OW; the slack behind each
// plane keeps the last vector's reads inside it.
struct InputPlanes {
  int width;
  int span;
  std::size_t stride;

  explicit InputPlanes(const tensor::ConvGeometry& g)
      : width(g.in_w + 2 * g.pad),
        span(g.out_h() * width),
        stride(static_cast<std::size_t>(round_up(span, kLanes)) +
               static_cast<std::size_t>(g.kernel_h - 1) * (width + 1)) {}
};

// Writes x into the interior of the padded planes in `xpad`, growing the
// buffer (with zeros) when it holds fewer planes. The borders and slack
// are never written, so a buffer reused for the same geometry keeps its
// zero padding.
void pad_input(const tensor::Tensor& x, const tensor::ConvGeometry& g,
               const InputPlanes& in, std::vector<float>& xpad) {
  const int planes = x.dim(0) * g.in_channels;
  if (xpad.size() < planes * in.stride) xpad.resize(planes * in.stride);
  for (int i = 0; i < planes; ++i) {
    const float* src =
        x.data() + static_cast<std::size_t>(i) * g.in_h * g.in_w;
    float* dst = xpad.data() + i * in.stride +
                 static_cast<std::size_t>(g.pad) * in.width + g.pad;
    for (int iy = 0; iy < g.in_h; ++iy) {
      std::copy(src + static_cast<std::size_t>(iy) * g.in_w,
                src + static_cast<std::size_t>(iy + 1) * g.in_w,
                dst + static_cast<std::size_t>(iy) * in.width);
    }
  }
}

// Rows [r0, r1) of the im2col matrix [N * OH * OW, K] (row (s, oy, ox),
// column (c, ky, kx)), rebuilt from the padded planes into `dst`.
void im2col_rows(const float* xpad, const InputPlanes& in,
                 const tensor::ConvGeometry& g, int r0, int r1, float* dst) {
  const int k = g.kernel_h;
  const int ow = g.out_w();
  const int p = g.out_pixels();
  for (int r = r0; r < r1; ++r) {
    const int oy = r % p / ow;
    const int ox = r % p % ow;
    const float* xs = xpad + static_cast<std::size_t>(r / p) *
                                 g.in_channels * in.stride +
                      static_cast<std::size_t>(oy) * in.width + ox;
    for (int c = 0; c < g.in_channels; ++c) {
      for (int ky = 0; ky < k; ++ky, dst += k) {
        const float* src =
            xs + c * in.stride + static_cast<std::size_t>(ky) * in.width;
        std::copy(src, src + k, dst);
      }
    }
  }
}

// The im2col matrix [N * OH * OW, K] of x (row (s, oy, ox), column (c, ky,
// kx)) as per-row nonzero lists in CSR form. Each nonzero input scatters
// to the <= KH * KW output rows whose patch holds it: a count pass sizes
// the rows, a fill pass writes them. Inputs are visited in (s, c, iy, ix)
// order, so every row receives its columns ascending, in im2col's order.
// Zero inputs of either sign are left out.
struct RowLists {
  std::vector<int> row_ptr;
  std::vector<int> cols;
  std::vector<float> vals;
};

RowLists im2col_lists(const tensor::Tensor& x, const tensor::ConvGeometry& g) {
  struct Input {
    int s, c, iy, ix;
    float v;
  };
  std::vector<Input> nz;
  const float* xv = x.data();
  for (int s = 0; s < x.dim(0); ++s) {
    for (int c = 0; c < g.in_channels; ++c) {
      for (int iy = 0; iy < g.in_h; ++iy, xv += g.in_w) {
        // Spike rows are mostly empty: test a whole row first (the OR of
        // the bit patterns is 0 or the sign bit only if all are +-0).
        std::uint32_t bits = 0;
        for (int ix = 0; ix < g.in_w; ++ix) {
          bits |= std::bit_cast<std::uint32_t>(xv[ix]);
        }
        if ((bits << 1) == 0) continue;
        for (int ix = 0; ix < g.in_w; ++ix) {
          if (xv[ix] != 0.0f) nz.push_back({s, c, iy, ix, xv[ix]});
        }
      }
    }
  }
  const int kh = g.kernel_h;
  const int kw = g.kernel_w;
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int p = oh * ow;
  const int rows = x.dim(0) * p;
  // Calls emit(row, column, value) for every nonzero of the matrix.
  const auto scatter = [&](auto&& emit) {
    for (const Input& in : nz) {
      // Taps with output (iy + pad - ky, ix + pad - kx) inside the image.
      const int ky0 = std::max(0, in.iy + g.pad - oh + 1);
      const int ky1 = std::min(kh, in.iy + g.pad + 1);
      const int kx0 = std::max(0, in.ix + g.pad - ow + 1);
      const int kx1 = std::min(kw, in.ix + g.pad + 1);
      for (int ky = ky0; ky < ky1; ++ky) {
        const int row = in.s * p + (in.iy + g.pad - ky) * ow + in.ix + g.pad;
        const int col = (in.c * kh + ky) * kw;
        for (int kx = kx0; kx < kx1; ++kx) emit(row - kx, col + kx, in.v);
      }
    }
  };
  RowLists a;
  a.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  scatter([&](int row, int, float) { ++a.row_ptr[row + 1]; });
  for (int r = 0; r < rows; ++r) a.row_ptr[r + 1] += a.row_ptr[r];
  a.cols.resize(static_cast<std::size_t>(a.row_ptr[rows]));
  a.vals.resize(a.cols.size());
  std::vector<int> fill(a.row_ptr.begin(), a.row_ptr.end() - 1);
  scatter([&](int row, int col, float v) {
    const int at = fill[row]++;
    a.cols[at] = col;
    a.vals[at] = v;
  });
  return a;
}

// out[s, co] = (+0 + chain) + bias, the chain running over taps (c, ky,
// kx) ascending from +0 with acc += w * x: gemm_blocked's per-element
// arithmetic for k <= 256 (zero taps included, as the dense micro-kernel
// does) followed by the layer's bias add. Lanes run over output
// positions, registers over eight output channels.
void direct_forward(const float* xpad, const InputPlanes& in,
                    const tensor::ConvGeometry& g, int n, const float* w,
                    int cout, const float* bias, float* out) {
  const int k = g.kernel_h;
  const int taps = g.patch_size();
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int blocks = (cout + kLanes - 1) / kLanes;
  // Weights as [block][tap][8 channels], the missing channels zero.
  std::vector<float> wp(static_cast<std::size_t>(blocks) * taps * kLanes);
  for (int tap = 0; tap < taps; ++tap) {
    for (int co = 0; co < cout; ++co) {
      wp[(static_cast<std::size_t>(co / kLanes) * taps + tap) * kLanes +
         co % kLanes] = w[static_cast<std::size_t>(tap) * cout + co];
    }
  }
  const int span = round_up(in.span, kLanes);
  const long long work = static_cast<long long>(n) * blocks * kLanes * span *
                         taps;
  for_slices(n, work, [&](int lo, int hi) {
    std::vector<float> y(static_cast<std::size_t>(kLanes) * span);
    for (int s = lo; s < hi; ++s) {
      const float* xs = xpad + static_cast<std::size_t>(s) * g.in_channels *
                                   in.stride;
      for (int b = 0; b < blocks; ++b) {
        for (int q = 0; q < span; q += kLanes) {
          Vf8 acc[kLanes] = {};
          const float* wt = wp.data() + static_cast<std::size_t>(b) * taps *
                                            kLanes;
          for (int c = 0; c < g.in_channels; ++c) {
            const float* xc = xs + c * in.stride + q;
            for (int ky = 0; ky < k; ++ky) {
              const float* xr = xc + static_cast<std::size_t>(ky) * in.width;
              for (int kx = 0; kx < k; ++kx, wt += kLanes) {
                const Vf8 xv = load8(xr + kx);
                for (int j = 0; j < kLanes; ++j) acc[j] += wt[j] * xv;
              }
            }
          }
          for (int j = 0; j < kLanes; ++j) {
            store8(y.data() + static_cast<std::size_t>(j) * span + q, acc[j]);
          }
        }
        for (int co = b * kLanes; co < std::min(cout, (b + 1) * kLanes); ++co) {
          const float add = bias ? bias[co] : 0.0f;
          const float* yc =
              y.data() + static_cast<std::size_t>(co % kLanes) * span;
          float* o = out + (static_cast<std::size_t>(s) * cout + co) * oh * ow;
          for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
              o[oy * ow + ox] = (0.0f + yc[oy * in.width + ox]) + add;
            }
          }
        }
      }
    }
  });
}

// wgrad[tap] += x * G[r] over the rows r = (s, oy, ox) ascending whose tap
// input x is nonzero: gemm_at_b_naive's chain per weight, walked from each
// (sample, channel) plane's nonzero list in raster order (the row order
// for every fixed tap). G is [n * OH * OW, cout] pixel-major.
void gather_weight_grad(const float* xpad, const InputPlanes& in,
                        const tensor::ConvGeometry& g, int n, const float* gm,
                        int cout, float* wgrad) {
  struct Nz {
    int py, px;
    float v;
  };
  const int k = g.kernel_h;
  const int oh = g.out_h();
  const int ow = g.out_w();
  const std::size_t p = static_cast<std::size_t>(oh) * ow;
  const long long work = static_cast<long long>(n) * p * g.patch_size();
  for_slices(g.in_channels, work, [&](int lo, int hi) {
    // Room for every pixel of the batch: the scan below stores each one
    // and advances only past the nonzero ones, without a branch.
    std::vector<Nz> nz(static_cast<std::size_t>(n) * g.in_h * g.in_w);
    std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1);
    for (int c = lo; c < hi; ++c) {
      std::size_t count = 0;
      for (int s = 0; s < n; ++s) {
        start[static_cast<std::size_t>(s)] = count;
        const float* plane =
            xpad +
            (static_cast<std::size_t>(s) * g.in_channels + c) * in.stride;
        for (int py = g.pad; py < g.pad + g.in_h; ++py) {
          for (int px = g.pad; px < g.pad + g.in_w; ++px) {
            const float v = plane[static_cast<std::size_t>(py) * in.width + px];
            nz[count] = {py, px, v};
            count += v != 0.0f;
          }
        }
      }
      start[static_cast<std::size_t>(n)] = count;
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx) {
          float* wrow =
              wgrad + static_cast<std::size_t>((c * k + ky) * k + kx) * cout;
          // Visits the nonzero inputs of this tap in row order, handing each
          // its value and pixel-major G row.
          const auto walk = [&](auto&& visit) {
            for (int s = 0; s < n; ++s) {
              const float* gs = gm + s * p * cout;
              for (std::size_t i = start[static_cast<std::size_t>(s)];
                   i < start[static_cast<std::size_t>(s) + 1]; ++i) {
                const unsigned oy = static_cast<unsigned>(nz[i].py - ky);
                const unsigned ox = static_cast<unsigned>(nz[i].px - kx);
                if (oy >= static_cast<unsigned>(oh) ||
                    ox >= static_cast<unsigned>(ow)) {
                  continue;
                }
                visit(nz[i].v, gs + (oy * ow + ox) * cout);
              }
            }
          };
          int j = 0;
          for (; j + kLanes <= cout; j += kLanes) {
            Vf8 acc = load8(wrow + j);
            walk([&](float v, const float* grow) {
              acc += v * load8(grow + j);
            });
            store8(wrow + j, acc);
          }
          for (; j < cout; ++j) {
            float acc = wrow[j];
            walk([&](float v, const float* grow) { acc += v * grow[j]; });
            wrow[j] = acc;
          }
        }
      }
    }
  });
}

// Padded output-gradient planes, one per (sample, channel): gradient
// (oy, ox) sits at (oy + margin, ox + margin) of a row `width` floats
// wide, the margin making every tap of every input pixel land inside.
// Input pixel (iy, ix) is flat position q = iy * width + ix and reads tap
// (ky, kx) at q + (pad + margin - ky) * width + (pad + margin - kx).
struct GradPlanes {
  int margin;
  int width;
  int span;
  std::size_t stride;

  explicit GradPlanes(const tensor::ConvGeometry& g)
      : margin(std::max(0, g.kernel_h - 1 - g.pad)),
        width(g.out_w() + 2 * margin),
        span(g.in_h * width),
        stride(std::max(
            static_cast<std::size_t>(g.out_h() + 2 * margin) * width,
            static_cast<std::size_t>(round_up(span, kLanes)) +
                static_cast<std::size_t>(g.pad + margin) * (width + 1))) {}
};

// grad_in[s, c, iy, ix] = sum of dot(G[r], W[tap]) over the taps (ky, kx)
// descending whose output pixel r exists: col2im's add order over the
// G * W^T entries, each dot being gemm_a_bt_blocked's (four partial sums
// over Cout, the k % 4 tail into the first, combined (s0 + s1) +
// (s2 + s3); its lane form for Cout < 32), read from the output gradient
// padded into `gpad`. The lowering adds each dot onto a zeroed buffer
// first; that only turns a -0 dot into +0, and a running sum from +0
// never holds -0, so adding the dot itself gives the same bits. Taps
// landing in the margin read zeros and add +0, which changes nothing.
void direct_input_grad(const tensor::Tensor& grad_out,
                       const tensor::ConvGeometry& g, const float* w,
                       int cout, std::vector<float>& gpad, float* grad_in) {
  const int n = grad_out.dim(0);
  const int k = g.kernel_h;
  const int oh = g.out_h();
  const int ow = g.out_w();
  const GradPlanes gp(g);
  // Only the interiors are written, so a reused buffer keeps zero margins.
  if (gpad.size() < n * cout * gp.stride) gpad.resize(n * cout * gp.stride);
  for (int i = 0; i < n * cout; ++i) {
    const float* src = grad_out.data() + static_cast<std::size_t>(i) * oh * ow;
    float* dst = gpad.data() + i * gp.stride +
                 static_cast<std::size_t>(gp.margin) * gp.width + gp.margin;
    for (int oy = 0; oy < oh; ++oy) {
      std::copy(src + oy * ow, src + (oy + 1) * ow,
                dst + static_cast<std::size_t>(oy) * gp.width);
    }
  }
  const int span = round_up(gp.span, kLanes);
  const int reach = g.pad + gp.margin;
  const long long work =
      static_cast<long long>(n) * span * g.patch_size() * cout;
  for_slices(n, work, [&](int lo, int hi) {
    std::vector<float> buf(static_cast<std::size_t>(span));
    for (int s = lo; s < hi; ++s) {
      const float* gs = gpad.data() + static_cast<std::size_t>(s) * cout *
                                          gp.stride;
      for (int c = 0; c < g.in_channels; ++c) {
        for (int q = 0; q < span; q += kLanes) {
          Vf8 gi{};
          for (int ky = k - 1; ky >= 0; --ky) {
            for (int kx = k - 1; kx >= 0; --kx) {
              const float* wt =
                  w + static_cast<std::size_t>((c * k + ky) * k + kx) * cout;
              const float* gq =
                  gs + q + static_cast<std::size_t>(reach - ky) * gp.width +
                  (reach - kx);
              const std::size_t ld = gp.stride;
              Vf8 s0{}, s1{}, s2{}, s3{};
              int kk = 0;
              for (; kk + 4 <= cout; kk += 4) {
                s0 += wt[kk] * load8(gq + kk * ld);
                s1 += wt[kk + 1] * load8(gq + (kk + 1) * ld);
                s2 += wt[kk + 2] * load8(gq + (kk + 2) * ld);
                s3 += wt[kk + 3] * load8(gq + (kk + 3) * ld);
              }
              for (; kk < cout; ++kk) s0 += wt[kk] * load8(gq + kk * ld);
              gi += (s0 + s1) + (s2 + s3);
            }
          }
          store8(buf.data() + q, gi);
        }
        float* dst =
            grad_in + (static_cast<std::size_t>(s) * g.in_channels + c) *
                          g.in_h * g.in_w;
        for (int iy = 0; iy < g.in_h; ++iy) {
          const float* row =
              buf.data() + static_cast<std::size_t>(iy) * gp.width;
          std::copy(row, row + g.in_w,
                    dst + static_cast<std::size_t>(iy) * g.in_w);
        }
      }
    }
  });
}

// The same sums when gemm_a_bt_auto picks the naive kernel (Cout < 8 or a
// small problem): GCC vectorizes its single running sum with unfused
// products, so rather than re-derive that code, each sample's G * W^T
// rows come from gemm_a_bt_naive itself and are summed in col2im's order.
// G is [n * OH * OW, cout] pixel-major.
void naive_input_grad(const float* gm, const tensor::ConvGeometry& g, int n,
                      const float* w, int cout, float* grad_in) {
  const int k = g.kernel_h;
  const int taps = g.patch_size();
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int p = oh * ow;
  std::vector<float> dots(static_cast<std::size_t>(p) * taps);
  for (int s = 0; s < n; ++s) {
    compute::gemm_a_bt_naive(gm + static_cast<std::size_t>(s) * p * cout, w,
                             dots.data(), p, cout, taps);
    float* gi = grad_in + static_cast<std::size_t>(s) * g.in_channels *
                              g.in_h * g.in_w;
    for (int c = 0; c < g.in_channels; ++c) {
      for (int iy = 0; iy < g.in_h; ++iy) {
        for (int ix = 0; ix < g.in_w; ++ix, ++gi) {
          for (int ky = k - 1; ky >= 0; --ky) {
            const int oy = iy + g.pad - ky;
            if (oy < 0 || oy >= oh) continue;
            for (int kx = k - 1; kx >= 0; --kx) {
              const int ox = ix + g.pad - kx;
              if (ox < 0 || ox >= ow) continue;
              *gi += dots[static_cast<std::size_t>(oy * ow + ox) * taps +
                          (c * k + ky) * k + kx];
            }
          }
        }
      }
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::string name, int in_channels, int out_channels,
               int kernel, int pad, common::Rng& init_rng, bool bias)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad),
      has_bias_(bias) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || pad < 0) {
    throw std::invalid_argument("Conv2d: invalid geometry");
  }
  const int k = in_channels * kernel * kernel;
  weight_ = Param(Layer::name() + ".weight",
                  tensor::Tensor({k, out_channels}));
  // Kaiming-uniform on fan-in.
  const float bound = std::sqrt(6.0f / static_cast<float>(k));
  for (auto& w : weight_.value) {
    w = static_cast<float>(init_rng.uniform(-bound, bound));
  }
  bias_ = Param(Layer::name() + ".bias", tensor::Tensor({out_channels}));
  bias_.trainable = has_bias_;
}

void Conv2d::bind_geometry(const tensor::Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: expected [N, " +
                                std::to_string(in_channels_) + ", H, W], got " +
                                tensor::shape_str(x.shape()));
  }
  tensor::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = x.dim(2);
  g.in_w = x.dim(3);
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = 1;
  g.pad = pad_;
  if (geometry_bound_ && (g.in_h != geometry_.in_h || g.in_w != geometry_.in_w)) {
    throw std::invalid_argument("Conv2d: input spatial size changed");
  }
  geometry_ = g;
  geometry_bound_ = true;
}

void Conv2d::reset_state() {
  steps_ = 0;
  batch_ = 0;
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& x, int t, Mode mode) {
  bind_geometry(x);
  const int n = x.dim(0);
  const int p = geometry_.out_pixels();
  const int k = geometry_.patch_size();
  const int m = out_channels_;
  batch_ = n;
  const float* bias = has_bias_ ? bias_.value.data() : nullptr;

  // The output outlives this call; the padded input and the engine
  // path's buffers do not (outside training). Allocating the output first
  // keeps the transient buffers above it on the heap, where freeing them
  // leaves no hole.
  tensor::Tensor out({n, m, geometry_.out_h(), geometry_.out_w()});
  const InputPlanes in(geometry_);
  std::vector<float> eval_xpad;
  std::vector<float>* xpad = &eval_xpad;
  if (mode == Mode::kTrain) {
    if (steps_ != t) {
      throw std::logic_error("Conv2d::forward: cache out of sync");
    }
    if (x_hist_.size() <= static_cast<std::size_t>(t)) x_hist_.emplace_back();
    xpad = &x_hist_[static_cast<std::size_t>(t)];
    ++steps_;
  } else if (!x_hist_.empty()) {
    // An eval pass ends training: release the buffers kept for reuse
    // between minibatches.
    x_hist_ = {};
    g_ = {};
    gpad_ = {};
    steps_ = 0;
  }
  if (engine_ == nullptr || mode == Mode::kTrain) {
    pad_input(x, geometry_, in, *xpad);
  }
  if (engine_ == nullptr) {
    direct_forward(xpad->data(), in, geometry_, n, weight_.value.data(), m,
                   bias, out.data());
  } else {
    // GEMM: [n*p, k] x [k, m] -> [n*p, m] over the im2col matrix's
    // nonzero lists, repacked into [N, Cout, OH, OW] with the bias added.
    const RowLists a = im2col_lists(x, geometry_);
    tensor::Tensor prod({n * p, m});
    engine_->run_sparse(a.row_ptr.data(), a.cols.data(), a.vals.data(),
                        weight_.value.data(), prod.data(), n * p, k, m,
                        Layer::name());
    for (int s = 0; s < n; ++s) {
      for (int pix = 0; pix < p; ++pix) {
        const float* row =
            prod.data() + (static_cast<std::size_t>(s) * p + pix) * m;
        for (int c = 0; c < m; ++c) {
          out.data()[((static_cast<std::size_t>(s) * m + c) * p) + pix] =
              row[c] + (bias ? bias[c] : 0.0f);
        }
      }
    }
  }

  return out;
}

void Conv2d::param_grads(const tensor::Tensor& grad_out, int t) {
  if (t < 0 || t >= steps_) {
    throw std::logic_error("Conv2d::backward: no cache for this time step");
  }
  const float* xpad = x_hist_[static_cast<std::size_t>(t)].data();
  const InputPlanes in(geometry_);
  const int n = batch_;
  const int p = geometry_.out_pixels();
  const int k = geometry_.patch_size();
  const int m = out_channels_;
  if (grad_out.rank() != 4 || grad_out.dim(0) != n || grad_out.dim(1) != m) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }

  // Repack [N, Cout, OH, OW] -> G [n*p, m].
  g_.resize(static_cast<std::size_t>(n) * p * m);
  float* g = g_.data();
  for (int s = 0; s < n; ++s) {
    for (int c = 0; c < m; ++c) {
      const float* plane =
          grad_out.data() + (static_cast<std::size_t>(s) * m + c) * p;
      for (int pix = 0; pix < p; ++pix) {
        g[(static_cast<std::size_t>(s) * p + pix) * m + c] = plane[pix];
      }
    }
  }

  // Weight gradient: W_grad[k x m] += cols^T[k x n*p] * G[n*p x m], cols
  // being the virtual im2col matrix of the cached input.
  if (weight_.trainable) {
    // gemm_at_b_auto's kernel choice reads the first rows of the matrix.
    const int sample_rows = std::min(n * p, compute::kDensitySampleRows);
    std::vector<float> sample(static_cast<std::size_t>(sample_rows) * k);
    im2col_rows(xpad, in, geometry_, 0, sample_rows, sample.data());
    const auto sample_nz = static_cast<std::size_t>(std::count_if(
        sample.begin(), sample.end(), [](float v) { return v != 0.0f; }));
    if (compute::gemm_at_b_picks_blocked(n * p, k, m, sample_nz)) {
      // Dense enough for the blocked kernel: hand it the matrix itself.
      tensor::Tensor cols({n * p, k});
      im2col_rows(xpad, in, geometry_, 0, n * p, cols.data());
      tensor::gemm_at_b(cols.data(), g, weight_.grad.data(), n * p, k, m,
                        /*accumulate=*/true);
    } else {
      gather_weight_grad(xpad, in, geometry_, n, g, m, weight_.grad.data());
    }
  }
  if (has_bias_ && bias_.trainable) {
    for (int row = 0; row < n * p; ++row) {
      const float* grow = g + static_cast<std::size_t>(row) * m;
      for (int c = 0; c < m; ++c) {
        bias_.grad[static_cast<std::size_t>(c)] += grow[c];
      }
    }
  }
}

void Conv2d::accumulate_param_grads(const tensor::Tensor& grad_out, int t) {
  param_grads(grad_out, t);
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_out, int t) {
  param_grads(grad_out, t);
  const int n = batch_;
  const int k = geometry_.patch_size();
  const int m = out_channels_;
  tensor::Tensor grad_in({n, in_channels_, geometry_.in_h, geometry_.in_w});
  if (compute::gemm_a_bt_picks_blocked(n * geometry_.out_pixels(), m, k)) {
    direct_input_grad(grad_out, geometry_, weight_.value.data(), m, gpad_,
                      grad_in.data());
  } else {
    naive_input_grad(g_.data(), geometry_, n, weight_.value.data(), m,
                     grad_in.data());
  }
  return grad_in;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

}  // namespace falvolt::snn
