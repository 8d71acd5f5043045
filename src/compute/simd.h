#pragma once
// Minimal SIMD helpers for the integer and float hot paths.
//
// The faulty-GEMM engine's proven-saturation-free fast path accumulates
// plain int32 weights across groups of adjacent output columns; with AVX2
// one 256-bit register holds the 8 column accumulators, so each spiking
// input row position is a single load+add. The scalar fallback keeps the
// exact same 8-lane shape (and therefore the same add order per lane), so
// results are bit-identical whether or not AVX2 is compiled in.

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace falvolt::compute {

// Eight-lane float vector (GCC/Clang extension; legalized to whatever the
// target ISA provides) shared by the float GEMM and direct conv kernels.
// A `scalar * vector` expression broadcasts the scalar, and `acc += a * b`
// contracts to a fused multiply-add exactly where the compiler contracts
// the scalar `c += a * b` of the reference kernels.
#if defined(__GNUC__) && !defined(__clang__)
// Without AVX the 32-byte vector is legalized to two 16-byte halves; the
// ABI note about passing such vectors is irrelevant for these inlined
// helpers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif
typedef float Vf8 __attribute__((vector_size(32)));

inline Vf8 load8(const float* p) {
  Vf8 v;
  __builtin_memcpy(&v, p, sizeof(Vf8));
  return v;
}
inline void store8(float* p, const Vf8& v) {
  __builtin_memcpy(p, &v, sizeof(Vf8));
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Column-group width of the integer fast path (one AVX2 register of
/// int32 lanes). The scalar fallback uses the same width so the two
/// builds partition columns identically.
inline constexpr int kI32Lanes = 8;

/// Name of the compiled integer SIMD backend (perf-trajectory metadata).
inline const char* simd_backend() {
#if defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

/// out[0..7] = sum over t of base[idx[t] * stride + lane], with plain
/// (non-saturating) int32 adds in idx order. Callers must have proven the
/// sums cannot overflow (see SystolicGemmEngine's headroom proof).
inline void accumulate_rows_i32x8(const std::int32_t* base, int stride,
                                  const int* idx, int count,
                                  std::int32_t* out) {
#if defined(__AVX2__)
  __m256i acc = _mm256_setzero_si256();
  for (int t = 0; t < count; ++t) {
    const std::int32_t* row =
        base + static_cast<std::ptrdiff_t>(idx[t]) * stride;
    acc = _mm256_add_epi32(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc);
#else
  std::int32_t acc[kI32Lanes] = {0};
  for (int t = 0; t < count; ++t) {
    const std::int32_t* row =
        base + static_cast<std::ptrdiff_t>(idx[t]) * stride;
    for (int lane = 0; lane < kI32Lanes; ++lane) acc[lane] += row[lane];
  }
  for (int lane = 0; lane < kI32Lanes; ++lane) out[lane] = acc[lane];
#endif
}

}  // namespace falvolt::compute
