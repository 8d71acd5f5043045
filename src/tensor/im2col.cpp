#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

namespace falvolt::tensor {

namespace {

// Kernel taps [lo, hi) of one axis that land inside the image for output
// coordinate `o`: tap k reads input coordinate o*stride + k - pad.
struct TapRange {
  int lo;
  int hi;
};

TapRange valid_taps(int o, int stride, int pad, int kernel, int in) {
  const int origin = o * stride - pad;
  return {std::max(0, -origin), std::min(kernel, in - origin)};
}

// Visit every in-image (column, input offset) pair of the im2col row of
// output pixel (oy, ox) in column order: channel, then ky, then kx.
template <typename Visit>
void for_each_tap(const ConvGeometry& g, int oy, int ox, Visit&& visit) {
  const TapRange ys = valid_taps(oy, g.stride, g.pad, g.kernel_h, g.in_h);
  const TapRange xs = valid_taps(ox, g.stride, g.pad, g.kernel_w, g.in_w);
  const int iy0 = oy * g.stride - g.pad;
  const int ix0 = ox * g.stride - g.pad;
  const std::size_t plane = static_cast<std::size_t>(g.in_h) * g.in_w;
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = ys.lo; ky < ys.hi; ++ky) {
      const int col = (c * g.kernel_h + ky) * g.kernel_w;
      const std::size_t in =
          c * plane + static_cast<std::size_t>(iy0 + ky) * g.in_w + ix0;
      for (int kx = xs.lo; kx < xs.hi; ++kx) visit(col + kx, in + kx);
    }
  }
}

}  // namespace

void im2col(const float* input, const ConvGeometry& g, float* out) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int patch = g.patch_size();
  std::memset(out, 0,
              sizeof(float) * static_cast<std::size_t>(oh) * ow * patch);
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      float* row = out + (static_cast<std::size_t>(oy) * ow + ox) * patch;
      for_each_tap(g, oy, ox, [&](int col, std::size_t in) {
        row[col] = input[in];
      });
    }
  }
}

}  // namespace falvolt::tensor
