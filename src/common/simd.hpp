// Vectorized row primitives — the axpy core shared by the dense layer.
//
// Each primitive has an AVX2/FMA implementation (compiled via a per-function
// target attribute, so it exists even in portable builds) and a scalar
// fallback; the public wrappers dispatch on simd_enabled() (cpuid probe plus
// the SPTX_NO_SIMD knob, cpu_features.hpp), which the caller passes in as
// `vec` — so a loop resolves the dispatch once rather than once per row.
// The SpMM engine keeps its own fused kernels in spmm.cpp (they need
// whole-row register blocking); these helpers serve the elementwise hot
// paths: optimizer axpy, Matrix arithmetic, and row normalization.
#pragma once

#include <cmath>
#include <cstdint>

#include "src/common/cpu_features.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define SPTX_SIMD_X86 1
#include <immintrin.h>
#define SPTX_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define SPTX_TARGET_AVX2
#endif

namespace sptx::simd {

namespace detail {

inline float sqnorm_scalar(const float* x, std::int64_t d) {
  float acc = 0.0f;
  for (std::int64_t j = 0; j < d; ++j) acc += x[j] * x[j];
  return acc;
}

inline void scale_scalar(float* x, std::int64_t d, float s) {
  for (std::int64_t j = 0; j < d; ++j) x[j] *= s;
}

inline void axpy_scalar(float* __restrict y, const float* __restrict x,
                        float a, std::int64_t d) {
  for (std::int64_t j = 0; j < d; ++j) y[j] += a * x[j];
}

inline void add_scalar(float* __restrict y, const float* __restrict x,
                       std::int64_t d) {
  for (std::int64_t j = 0; j < d; ++j) y[j] += x[j];
}

inline void sub_scalar(float* __restrict y, const float* __restrict x,
                       std::int64_t d) {
  for (std::int64_t j = 0; j < d; ++j) y[j] -= x[j];
}

inline void mul_scalar(float* __restrict y, const float* __restrict x,
                       std::int64_t d) {
  for (std::int64_t j = 0; j < d; ++j) y[j] *= x[j];
}

inline float dot_scalar(const float* a, const float* b, std::int64_t d) {
  float acc = 0.0f;
  for (std::int64_t j = 0; j < d; ++j) acc += a[j] * b[j];
  return acc;
}

#ifdef SPTX_SIMD_X86

SPTX_TARGET_AVX2 inline float hsum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

SPTX_TARGET_AVX2 inline float sqnorm_avx2(const float* x, std::int64_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 16 <= d; j += 16) {
    const __m256 a = _mm256_loadu_ps(x + j);
    const __m256 b = _mm256_loadu_ps(x + j + 8);
    acc0 = _mm256_fmadd_ps(a, a, acc0);
    acc1 = _mm256_fmadd_ps(b, b, acc1);
  }
  for (; j + 8 <= d; j += 8) {
    const __m256 a = _mm256_loadu_ps(x + j);
    acc0 = _mm256_fmadd_ps(a, a, acc0);
  }
  float acc = hsum(_mm256_add_ps(acc0, acc1));
  for (; j < d; ++j) acc += x[j] * x[j];
  return acc;
}

SPTX_TARGET_AVX2 inline void scale_avx2(float* x, std::int64_t d, float s) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(x + j, _mm256_mul_ps(_mm256_loadu_ps(x + j), vs));
  }
  for (; j < d; ++j) x[j] *= s;
}

SPTX_TARGET_AVX2 inline void axpy_avx2(float* __restrict y,
                                       const float* __restrict x, float a,
                                       std::int64_t d) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 vy =
        _mm256_fmadd_ps(_mm256_loadu_ps(x + j), va, _mm256_loadu_ps(y + j));
    _mm256_storeu_ps(y + j, vy);
  }
  // The tail rounds like the vector body (one fused multiply-add), so an
  // element's result never depends on where a row boundary puts it: a
  // row-by-row axpy and one flat axpy over the same rows agree bit for bit
  // under any -ffp-contract setting.
  for (; j < d; ++j) y[j] = std::fma(a, x[j], y[j]);
}

SPTX_TARGET_AVX2 inline void add_avx2(float* __restrict y,
                                      const float* __restrict x,
                                      std::int64_t d) {
  std::int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_add_ps(_mm256_loadu_ps(y + j), _mm256_loadu_ps(x + j)));
  }
  for (; j < d; ++j) y[j] += x[j];
}

SPTX_TARGET_AVX2 inline void sub_avx2(float* __restrict y,
                                      const float* __restrict x,
                                      std::int64_t d) {
  std::int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_sub_ps(_mm256_loadu_ps(y + j), _mm256_loadu_ps(x + j)));
  }
  for (; j < d; ++j) y[j] -= x[j];
}

SPTX_TARGET_AVX2 inline void mul_avx2(float* __restrict y,
                                      const float* __restrict x,
                                      std::int64_t d) {
  std::int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_mul_ps(_mm256_loadu_ps(y + j), _mm256_loadu_ps(x + j)));
  }
  for (; j < d; ++j) y[j] *= x[j];
}

SPTX_TARGET_AVX2 inline float dot_avx2(const float* a, const float* b,
                                       std::int64_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 16 <= d; j += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 8),
                           _mm256_loadu_ps(b + j + 8), acc1);
  }
  for (; j + 8 <= d; j += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
  }
  float acc = hsum(_mm256_add_ps(acc0, acc1));
  for (; j < d; ++j) acc += a[j] * b[j];
  return acc;
}

#endif  // SPTX_SIMD_X86

}  // namespace detail

/// Σ x[j]² over d contiguous floats.
inline float squared_norm(const float* x, std::int64_t d, bool vec) {
#ifdef SPTX_SIMD_X86
  if (vec) return detail::sqnorm_avx2(x, d);
#else
  (void)vec;
#endif
  return detail::sqnorm_scalar(x, d);
}

/// x *= s elementwise.
inline void scale(float* x, std::int64_t d, float s, bool vec) {
#ifdef SPTX_SIMD_X86
  if (vec) return detail::scale_avx2(x, d, s);
#else
  (void)vec;
#endif
  detail::scale_scalar(x, d, s);
}

/// y += a · x (the axpy core).
inline void axpy(float* y, const float* x, float a, std::int64_t d,
                 bool vec) {
#ifdef SPTX_SIMD_X86
  if (vec) return detail::axpy_avx2(y, x, a, d);
#else
  (void)vec;
#endif
  detail::axpy_scalar(y, x, a, d);
}

/// y += x.
inline void add(float* y, const float* x, std::int64_t d, bool vec) {
#ifdef SPTX_SIMD_X86
  if (vec) return detail::add_avx2(y, x, d);
#else
  (void)vec;
#endif
  detail::add_scalar(y, x, d);
}

/// y -= x.
inline void sub(float* y, const float* x, std::int64_t d, bool vec) {
#ifdef SPTX_SIMD_X86
  if (vec) return detail::sub_avx2(y, x, d);
#else
  (void)vec;
#endif
  detail::sub_scalar(y, x, d);
}

/// y *= x elementwise.
inline void mul(float* y, const float* x, std::int64_t d, bool vec) {
#ifdef SPTX_SIMD_X86
  if (vec) return detail::mul_avx2(y, x, d);
#else
  (void)vec;
#endif
  detail::mul_scalar(y, x, d);
}

/// Σ a[j]·b[j].
inline float dot(const float* a, const float* b, std::int64_t d, bool vec) {
#ifdef SPTX_SIMD_X86
  if (vec) return detail::dot_avx2(a, b, d);
#else
  (void)vec;
#endif
  return detail::dot_scalar(a, b, d);
}

/// Squared-norm tolerance within which a d-float row already counts as unit
/// length: (d + 8)·2⁻²². Normalising a row leaves its recomputed squared norm
/// within about (2d + 6)·2⁻²⁴ of 1 — d-term summation error twice (before
/// and after), plus the rounding of sqrt, the reciprocal and each product —
/// so the result of any normalisation lies inside this bound, with a factor
/// of two to spare.
inline float unit_norm_tolerance(std::int64_t d) {
  return static_cast<float>(d + 8) * 0x1p-22f;
}

/// x /= ‖x‖₂ — unless x is zero or already unit length within
/// unit_norm_tolerance(d). The skip makes renormalisation idempotent bit for
/// bit: normalising an unchanged row a second time leaves it untouched, so
/// renormalising only the rows a batch changed gives the same bits as
/// renormalising every row.
inline void normalize_l2(float* x, std::int64_t d, bool vec) {
  const float sq = squared_norm(x, d, vec);
  if (sq <= 0.0f || std::fabs(sq - 1.0f) <= unit_norm_tolerance(d)) return;
  scale(x, d, 1.0f / std::sqrt(sq), vec);
}

}  // namespace sptx::simd
