#pragma once
// Minimal SIMD helpers for the integer and float hot paths.
//
// The faulty-GEMM engine evaluates groups of 8 adjacent output columns in
// int32 lanes: one 256-bit register with AVX2, eight scalar lanes without.
// Both walk each lane through the same operations in the same order, so
// results are bit-identical whether or not AVX2 is compiled in.

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

/// Column-group width of the faulty-GEMM kernel (one AVX2 register of
/// int32 lanes). The scalar lanes use the same width so the two builds
/// partition columns identically.
inline constexpr int kI32Lanes = 8;

/// Name of the compiled integer SIMD backend (perf-trajectory metadata).
inline const char* simd_backend() {
#if defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

}  // namespace falvolt::compute
