// Fused forward+backward kernels for the translation families (TransR lives
// in fused_transr.cpp — it needs the relation-grouped GEMM micro-kernels).
//
// Layout of this file: per-row primitives first (each with an AVX2/FMA
// implementation compiled via target attribute plus a scalar fallback,
// selected once per batch), then the public per-family entry points that
// loop the batch and count FLOPs. The math and epsilons mirror the autograd
// ops these kernels replace (see ops.cpp): row_l2's 1e-12 clamp, row_l1's
// sign(0) = 0, the torus wraparound derivative.
#include "src/kernels/fused.hpp"

#include <cmath>

#include "src/common/cpu_features.hpp"
#include "src/common/simd.hpp"
#include "src/profiling/flops.hpp"

namespace sptx::kernels {

namespace {

constexpr float kNormEps = 1e-12f;  // ops.cpp's norm-backward clamp

// ---- scalar per-row primitives --------------------------------------------

inline float hrt_fwd_l2_s(const float* h, const float* r, const float* t,
                          index_t d) {
  float acc = 0.0f;
  for (index_t j = 0; j < d; ++j) {
    const float v = h[j] + r[j] - t[j];
    acc += v * v;
  }
  return acc;
}

inline float hrt_fwd_l1_s(const float* h, const float* r, const float* t,
                          index_t d) {
  float acc = 0.0f;
  for (index_t j = 0; j < d; ++j) acc += std::fabs(h[j] + r[j] - t[j]);
  return acc;
}

/// dh += s·v, dr += s·v, dt −= s·v with v = h + r − t recomputed in
/// registers — the fused scatter that replaces spmm_backward + add/sub
/// backward + the norm backward's intermediate.
inline void hrt_bwd_scaled_s(const float* h, const float* r, const float* t,
                             float* dh, float* dr, float* dt, float s,
                             index_t d) {
  for (index_t j = 0; j < d; ++j) {
    const float c = s * (h[j] + r[j] - t[j]);
    dh[j] += c;
    dr[j] += c;
    dt[j] -= c;
  }
}

/// L1 variant: the coefficient is s·sign(v), sign(0) = 0.
inline void hrt_bwd_sign_s(const float* h, const float* r, const float* t,
                           float* dh, float* dr, float* dt, float s,
                           index_t d) {
  for (index_t j = 0; j < d; ++j) {
    const float v = h[j] + r[j] - t[j];
    const float c = v > 0.0f ? s : v < 0.0f ? -s : 0.0f;
    dh[j] += c;
    dr[j] += c;
    dt[j] -= c;
  }
}

// Wraparound component distance on the unit torus (ops.cpp):
// m = min(frac, 1 − frac), dm/dx = +1 on [0, ½), −1 after.
inline void torus_comp_s(float x, float& m, float& sgn) {
  const float f = x - std::floor(x);
  if (f < 0.5f) {
    m = f;
    sgn = 1.0f;
  } else {
    m = 1.0f - f;
    sgn = -1.0f;
  }
}

inline float torus_fwd_s(const float* h, const float* r, const float* t,
                         index_t d, bool l2) {
  float acc = 0.0f;
  for (index_t j = 0; j < d; ++j) {
    float m, sgn;
    torus_comp_s(h[j] + r[j] - t[j], m, sgn);
    acc += l2 ? m * m : m;
  }
  return acc;
}

inline void torus_bwd_s(const float* h, const float* r, const float* t,
                        float* dh, float* dr, float* dt, float g, index_t d,
                        bool l2) {
  for (index_t j = 0; j < d; ++j) {
    float m, sgn;
    torus_comp_s(h[j] + r[j] - t[j], m, sgn);
    const float c = l2 ? g * 2.0f * m * sgn : g * sgn;
    dh[j] += c;
    dr[j] += c;
    dt[j] -= c;
  }
}

inline float transa_fwd_s(const float* h, const float* r, const float* t,
                          const float* w, index_t d) {
  float acc = 0.0f;
  for (index_t j = 0; j < d; ++j) {
    const float v = h[j] + r[j] - t[j];
    acc += w[j] * v * v;
  }
  return acc;
}

inline void transa_bwd_s(const float* h, const float* r, const float* t,
                         const float* w, float* dh, float* dr, float* dt,
                         float* dw, float g, index_t d) {
  for (index_t j = 0; j < d; ++j) {
    const float v = h[j] + r[j] - t[j];
    const float c = 2.0f * g * w[j] * v;
    dh[j] += c;
    dr[j] += c;
    dt[j] -= c;
    dw[j] += g * v * v;
  }
}

inline float diff_dot_s(const float* w, const float* h, const float* t,
                        index_t d) {
  float acc = 0.0f;
  for (index_t j = 0; j < d; ++j) acc += w[j] * (h[j] - t[j]);
  return acc;
}

inline void diff_axpy_s(float* y, const float* h, const float* t, float c,
                        index_t d) {
  for (index_t j = 0; j < d; ++j) y[j] += c * (h[j] - t[j]);
}

/// u = (h − t) + dr − wdot·w (the TransH hyperplane expression).
inline void transh_u_s(const float* h, const float* t, const float* dr,
                       const float* w, float wdot, float* u, index_t d) {
  for (index_t j = 0; j < d; ++j)
    u[j] = (h[j] - t[j]) + dr[j] - wdot * w[j];
}

/// u = (h − t) + r + s·rp (the TransD dynamic-mapping expression).
inline void transd_u_s(const float* h, const float* t, const float* r,
                       const float* rp, float s, float* u, index_t d) {
  for (index_t j = 0; j < d; ++j) u[j] = (h[j] - t[j]) + r[j] + s * rp[j];
}

/// x ← s·sign(x), sign(0) = 0 (turns a stored expression row into its L1
/// gradient in place).
inline void sign_scale_s(float* x, float s, index_t d) {
  for (index_t j = 0; j < d; ++j)
    x[j] = x[j] > 0.0f ? s : x[j] < 0.0f ? -s : 0.0f;
}

inline float l1_norm_s(const float* x, index_t d) {
  float acc = 0.0f;
  for (index_t j = 0; j < d; ++j) acc += std::fabs(x[j]);
  return acc;
}

// ---- AVX2/FMA per-row primitives ------------------------------------------

#ifdef SPTX_SIMD_X86

SPTX_TARGET_AVX2 inline __m256 abs256(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

/// s·sign(v) per lane, sign(0) = 0.
SPTX_TARGET_AVX2 inline __m256 sign_mul256(__m256 v, __m256 s) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 pos = _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ), s);
  const __m256 neg = _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ), s);
  return _mm256_sub_ps(pos, neg);
}

SPTX_TARGET_AVX2 inline float hrt_fwd_l2_v(const float* h, const float* r,
                                           const float* t, index_t d) {
  __m256 acc = _mm256_setzero_ps();
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(r + j)),
        _mm256_loadu_ps(t + j));
    acc = _mm256_fmadd_ps(v, v, acc);
  }
  float out = simd::detail::hsum(acc);
  for (; j < d; ++j) {
    const float v = h[j] + r[j] - t[j];
    out += v * v;
  }
  return out;
}

SPTX_TARGET_AVX2 inline float hrt_fwd_l1_v(const float* h, const float* r,
                                           const float* t, index_t d) {
  __m256 acc = _mm256_setzero_ps();
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(r + j)),
        _mm256_loadu_ps(t + j));
    acc = _mm256_add_ps(acc, abs256(v));
  }
  float out = simd::detail::hsum(acc);
  for (; j < d; ++j) out += std::fabs(h[j] + r[j] - t[j]);
  return out;
}

SPTX_TARGET_AVX2 inline void hrt_bwd_scaled_v(const float* h, const float* r,
                                              const float* t, float* dh,
                                              float* dr, float* dt, float s,
                                              index_t d) {
  const __m256 vs = _mm256_set1_ps(s);
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(r + j)),
        _mm256_loadu_ps(t + j));
    const __m256 c = _mm256_mul_ps(vs, v);
    _mm256_storeu_ps(dh + j, _mm256_add_ps(_mm256_loadu_ps(dh + j), c));
    _mm256_storeu_ps(dr + j, _mm256_add_ps(_mm256_loadu_ps(dr + j), c));
    _mm256_storeu_ps(dt + j, _mm256_sub_ps(_mm256_loadu_ps(dt + j), c));
  }
  for (; j < d; ++j) {
    const float c = s * (h[j] + r[j] - t[j]);
    dh[j] += c;
    dr[j] += c;
    dt[j] -= c;
  }
}

SPTX_TARGET_AVX2 inline void hrt_bwd_sign_v(const float* h, const float* r,
                                            const float* t, float* dh,
                                            float* dr, float* dt, float s,
                                            index_t d) {
  const __m256 vs = _mm256_set1_ps(s);
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(r + j)),
        _mm256_loadu_ps(t + j));
    const __m256 c = sign_mul256(v, vs);
    _mm256_storeu_ps(dh + j, _mm256_add_ps(_mm256_loadu_ps(dh + j), c));
    _mm256_storeu_ps(dr + j, _mm256_add_ps(_mm256_loadu_ps(dr + j), c));
    _mm256_storeu_ps(dt + j, _mm256_sub_ps(_mm256_loadu_ps(dt + j), c));
  }
  for (; j < d; ++j) {
    const float v = h[j] + r[j] - t[j];
    const float c = v > 0.0f ? s : v < 0.0f ? -s : 0.0f;
    dh[j] += c;
    dr[j] += c;
    dt[j] -= c;
  }
}

/// (m, sgn) per lane: m = min(frac, 1−frac), sgn = ±1 on the frac < ½ split.
SPTX_TARGET_AVX2 inline void torus_comp_v(__m256 v, __m256& m, __m256& sgn) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 f = _mm256_sub_ps(v, _mm256_floor_ps(v));
  const __m256 below = _mm256_cmp_ps(f, _mm256_set1_ps(0.5f), _CMP_LT_OQ);
  m = _mm256_blendv_ps(_mm256_sub_ps(one, f), f, below);
  sgn = _mm256_blendv_ps(_mm256_set1_ps(-1.0f), one, below);
}

SPTX_TARGET_AVX2 inline float torus_fwd_v(const float* h, const float* r,
                                          const float* t, index_t d, bool l2) {
  __m256 acc = _mm256_setzero_ps();
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(r + j)),
        _mm256_loadu_ps(t + j));
    __m256 m, sgn;
    torus_comp_v(v, m, sgn);
    acc = l2 ? _mm256_fmadd_ps(m, m, acc) : _mm256_add_ps(acc, m);
  }
  float out = simd::detail::hsum(acc);
  for (; j < d; ++j) {
    float m, sgn;
    torus_comp_s(h[j] + r[j] - t[j], m, sgn);
    out += l2 ? m * m : m;
  }
  return out;
}

SPTX_TARGET_AVX2 inline void torus_bwd_v(const float* h, const float* r,
                                         const float* t, float* dh, float* dr,
                                         float* dt, float g, index_t d,
                                         bool l2) {
  const __m256 vg = _mm256_set1_ps(l2 ? 2.0f * g : g);
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(r + j)),
        _mm256_loadu_ps(t + j));
    __m256 m, sgn;
    torus_comp_v(v, m, sgn);
    __m256 c = _mm256_mul_ps(vg, sgn);
    if (l2) c = _mm256_mul_ps(c, m);
    _mm256_storeu_ps(dh + j, _mm256_add_ps(_mm256_loadu_ps(dh + j), c));
    _mm256_storeu_ps(dr + j, _mm256_add_ps(_mm256_loadu_ps(dr + j), c));
    _mm256_storeu_ps(dt + j, _mm256_sub_ps(_mm256_loadu_ps(dt + j), c));
  }
  for (; j < d; ++j) {
    float m, sgn;
    torus_comp_s(h[j] + r[j] - t[j], m, sgn);
    const float c = l2 ? g * 2.0f * m * sgn : g * sgn;
    dh[j] += c;
    dr[j] += c;
    dt[j] -= c;
  }
}

SPTX_TARGET_AVX2 inline float transa_fwd_v(const float* h, const float* r,
                                           const float* t, const float* w,
                                           index_t d) {
  __m256 acc = _mm256_setzero_ps();
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(r + j)),
        _mm256_loadu_ps(t + j));
    acc = _mm256_fmadd_ps(_mm256_mul_ps(_mm256_loadu_ps(w + j), v), v, acc);
  }
  float out = simd::detail::hsum(acc);
  for (; j < d; ++j) {
    const float v = h[j] + r[j] - t[j];
    out += w[j] * v * v;
  }
  return out;
}

SPTX_TARGET_AVX2 inline void transa_bwd_v(const float* h, const float* r,
                                          const float* t, const float* w,
                                          float* dh, float* dr, float* dt,
                                          float* dw, float g, index_t d) {
  const __m256 vg = _mm256_set1_ps(g);
  const __m256 v2g = _mm256_set1_ps(2.0f * g);
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(r + j)),
        _mm256_loadu_ps(t + j));
    const __m256 c =
        _mm256_mul_ps(_mm256_mul_ps(v2g, _mm256_loadu_ps(w + j)), v);
    _mm256_storeu_ps(dh + j, _mm256_add_ps(_mm256_loadu_ps(dh + j), c));
    _mm256_storeu_ps(dr + j, _mm256_add_ps(_mm256_loadu_ps(dr + j), c));
    _mm256_storeu_ps(dt + j, _mm256_sub_ps(_mm256_loadu_ps(dt + j), c));
    _mm256_storeu_ps(
        dw + j, _mm256_fmadd_ps(_mm256_mul_ps(vg, v), v,
                                _mm256_loadu_ps(dw + j)));
  }
  for (; j < d; ++j) {
    const float v = h[j] + r[j] - t[j];
    const float c = 2.0f * g * w[j] * v;
    dh[j] += c;
    dr[j] += c;
    dt[j] -= c;
    dw[j] += g * v * v;
  }
}

SPTX_TARGET_AVX2 inline float diff_dot_v(const float* w, const float* h,
                                         const float* t, index_t d) {
  __m256 acc = _mm256_setzero_ps();
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    acc = _mm256_fmadd_ps(
        _mm256_loadu_ps(w + j),
        _mm256_sub_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(t + j)), acc);
  }
  float out = simd::detail::hsum(acc);
  for (; j < d; ++j) out += w[j] * (h[j] - t[j]);
  return out;
}

SPTX_TARGET_AVX2 inline void diff_axpy_v(float* y, const float* h,
                                         const float* t, float c, index_t d) {
  const __m256 vc = _mm256_set1_ps(c);
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(
        y + j,
        _mm256_fmadd_ps(
            vc, _mm256_sub_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(t + j)),
            _mm256_loadu_ps(y + j)));
  }
  for (; j < d; ++j) y[j] += c * (h[j] - t[j]);
}

SPTX_TARGET_AVX2 inline void transh_u_v(const float* h, const float* t,
                                        const float* dr, const float* w,
                                        float wdot, float* u, index_t d) {
  const __m256 vw = _mm256_set1_ps(-wdot);
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 x =
        _mm256_sub_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(t + j));
    _mm256_storeu_ps(
        u + j, _mm256_fmadd_ps(vw, _mm256_loadu_ps(w + j),
                               _mm256_add_ps(x, _mm256_loadu_ps(dr + j))));
  }
  for (; j < d; ++j) u[j] = (h[j] - t[j]) + dr[j] - wdot * w[j];
}

SPTX_TARGET_AVX2 inline void transd_u_v(const float* h, const float* t,
                                        const float* r, const float* rp,
                                        float s, float* u, index_t d) {
  const __m256 vs = _mm256_set1_ps(s);
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 x =
        _mm256_sub_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(t + j));
    _mm256_storeu_ps(
        u + j, _mm256_fmadd_ps(vs, _mm256_loadu_ps(rp + j),
                               _mm256_add_ps(x, _mm256_loadu_ps(r + j))));
  }
  for (; j < d; ++j) u[j] = (h[j] - t[j]) + r[j] + s * rp[j];
}

SPTX_TARGET_AVX2 inline void sign_scale_v(float* x, float s, index_t d) {
  const __m256 vs = _mm256_set1_ps(s);
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(x + j, sign_mul256(_mm256_loadu_ps(x + j), vs));
  }
  for (; j < d; ++j) x[j] = x[j] > 0.0f ? s : x[j] < 0.0f ? -s : 0.0f;
}

SPTX_TARGET_AVX2 inline float l1_norm_v(const float* x, index_t d) {
  __m256 acc = _mm256_setzero_ps();
  index_t j = 0;
  for (; j + 8 <= d; j += 8)
    acc = _mm256_add_ps(acc, abs256(_mm256_loadu_ps(x + j)));
  float out = simd::detail::hsum(acc);
  for (; j < d; ++j) out += std::fabs(x[j]);
  return out;
}

#endif  // SPTX_SIMD_X86

// ---- dispatch wrappers (the per-batch `simd` flag hoists the cpuid/knob
// probe out of the row loop) ------------------------------------------------

inline float hrt_fwd(const float* h, const float* r, const float* t,
                     index_t d, Norm norm, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd)
    return norm == Norm::kL2 ? hrt_fwd_l2_v(h, r, t, d)
                             : hrt_fwd_l1_v(h, r, t, d);
#else
  (void)simd;
#endif
  return norm == Norm::kL2 ? hrt_fwd_l2_s(h, r, t, d)
                           : hrt_fwd_l1_s(h, r, t, d);
}

inline void hrt_bwd_scaled(const float* h, const float* r, const float* t,
                           float* dh, float* dr, float* dt, float s,
                           index_t d, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return hrt_bwd_scaled_v(h, r, t, dh, dr, dt, s, d);
#else
  (void)simd;
#endif
  hrt_bwd_scaled_s(h, r, t, dh, dr, dt, s, d);
}

inline void hrt_bwd_sign(const float* h, const float* r, const float* t,
                         float* dh, float* dr, float* dt, float s, index_t d,
                         bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return hrt_bwd_sign_v(h, r, t, dh, dr, dt, s, d);
#else
  (void)simd;
#endif
  hrt_bwd_sign_s(h, r, t, dh, dr, dt, s, d);
}

inline float torus_fwd(const float* h, const float* r, const float* t,
                       index_t d, bool l2, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return torus_fwd_v(h, r, t, d, l2);
#else
  (void)simd;
#endif
  return torus_fwd_s(h, r, t, d, l2);
}

inline void torus_bwd(const float* h, const float* r, const float* t,
                      float* dh, float* dr, float* dt, float g, index_t d,
                      bool l2, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return torus_bwd_v(h, r, t, dh, dr, dt, g, d, l2);
#else
  (void)simd;
#endif
  torus_bwd_s(h, r, t, dh, dr, dt, g, d, l2);
}

inline float transa_fwd(const float* h, const float* r, const float* t,
                        const float* w, index_t d, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return transa_fwd_v(h, r, t, w, d);
#else
  (void)simd;
#endif
  return transa_fwd_s(h, r, t, w, d);
}

inline void transa_bwd(const float* h, const float* r, const float* t,
                       const float* w, float* dh, float* dr, float* dt,
                       float* dw, float g, index_t d, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return transa_bwd_v(h, r, t, w, dh, dr, dt, dw, g, d);
#else
  (void)simd;
#endif
  transa_bwd_s(h, r, t, w, dh, dr, dt, dw, g, d);
}

inline float diff_dot(const float* w, const float* h, const float* t,
                      index_t d, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return diff_dot_v(w, h, t, d);
#else
  (void)simd;
#endif
  return diff_dot_s(w, h, t, d);
}

inline void diff_axpy(float* y, const float* h, const float* t, float c,
                      index_t d, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return diff_axpy_v(y, h, t, c, d);
#else
  (void)simd;
#endif
  diff_axpy_s(y, h, t, c, d);
}

inline void transh_u(const float* h, const float* t, const float* dr,
                     const float* w, float wdot, float* u, index_t d,
                     bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return transh_u_v(h, t, dr, w, wdot, u, d);
#else
  (void)simd;
#endif
  transh_u_s(h, t, dr, w, wdot, u, d);
}

inline void transd_u(const float* h, const float* t, const float* r,
                     const float* rp, float s, float* u, index_t d,
                     bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return transd_u_v(h, t, r, rp, s, u, d);
#else
  (void)simd;
#endif
  transd_u_s(h, t, r, rp, s, u, d);
}

inline void sign_scale(float* x, float s, index_t d, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return sign_scale_v(x, s, d);
#else
  (void)simd;
#endif
  sign_scale_s(x, s, d);
}

inline float l1_norm(const float* x, index_t d, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return l1_norm_v(x, d);
#else
  (void)simd;
#endif
  return l1_norm_s(x, d);
}

/// dL/dscore → dL/du scale for an L2-norm tail (row_l2's backward with its
/// 1e-12 clamp). The L1 tail has no scale — sign_scale applies the gradient.
inline float l2_scale(float score, float g) {
  return g / std::max(score, kNormEps);
}

}  // namespace

bool fused_enabled() { return !config::current()->hot().fused_off; }

// ---- TransE ---------------------------------------------------------------

void transe_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, Norm norm, float* scores) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float acc = hrt_fwd(table.row(t.head),
                              table.row(num_entities + t.relation),
                              table.row(t.tail), d, norm, simd);
    scores[i] = norm == Norm::kL2 ? std::sqrt(acc) : acc;
  }
  profiling::count_flops(5 * static_cast<std::int64_t>(batch.size()) * d);
}

void transe_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, Norm norm, const float* scores,
                     const float* gscores, Matrix& dtable) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = table.row(t.head);
    const float* r = table.row(num_entities + t.relation);
    const float* tl = table.row(t.tail);
    float* dh = dtable.row(t.head);
    float* dr = dtable.row(num_entities + t.relation);
    float* dt = dtable.row(t.tail);
    if (norm == Norm::kL2) {
      hrt_bwd_scaled(h, r, tl, dh, dr, dt, l2_scale(scores[i], gscores[i]), d,
                     simd);
    } else {
      hrt_bwd_sign(h, r, tl, dh, dr, dt, gscores[i], d, simd);
    }
  }
  profiling::count_flops(7 * static_cast<std::int64_t>(batch.size()) * d);
}

// ---- TransC ---------------------------------------------------------------

void transc_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, float* scores) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    scores[i] = hrt_fwd(table.row(t.head),
                        table.row(num_entities + t.relation),
                        table.row(t.tail), d, Norm::kL2, simd);
  }
  profiling::count_flops(5 * static_cast<std::int64_t>(batch.size()) * d);
}

void transc_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, const float* gscores,
                     Matrix& dtable) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    // d(Σv²)/dv = 2v: the squared-L2 tail needs no norm clamp.
    hrt_bwd_scaled(table.row(t.head), table.row(num_entities + t.relation),
                   table.row(t.tail), dtable.row(t.head),
                   dtable.row(num_entities + t.relation), dtable.row(t.tail),
                   2.0f * gscores[i], d, simd);
  }
  profiling::count_flops(7 * static_cast<std::int64_t>(batch.size()) * d);
}

// ---- TorusE ---------------------------------------------------------------

void toruse_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, Norm norm, float* scores) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  const bool l2 = norm == Norm::kL2;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    scores[i] = torus_fwd(table.row(t.head),
                          table.row(num_entities + t.relation),
                          table.row(t.tail), d, l2, simd);
  }
  profiling::count_flops(7 * static_cast<std::int64_t>(batch.size()) * d);
}

void toruse_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, Norm norm, const float* gscores,
                     Matrix& dtable) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  const bool l2 = norm == Norm::kL2;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    torus_bwd(table.row(t.head), table.row(num_entities + t.relation),
              table.row(t.tail), dtable.row(t.head),
              dtable.row(num_entities + t.relation), dtable.row(t.tail),
              gscores[i], d, l2, simd);
  }
  profiling::count_flops(8 * static_cast<std::int64_t>(batch.size()) * d);
}

// ---- TransA ---------------------------------------------------------------

void transa_forward(std::span<const Triplet> batch, const Matrix& table,
                    const Matrix& metric, index_t num_entities,
                    float* scores) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    scores[i] = transa_fwd(table.row(t.head),
                           table.row(num_entities + t.relation),
                           table.row(t.tail), metric.row(t.relation), d, simd);
  }
  profiling::count_flops(6 * static_cast<std::int64_t>(batch.size()) * d);
}

void transa_backward(std::span<const Triplet> batch, const Matrix& table,
                     const Matrix& metric, index_t num_entities,
                     const float* gscores, Matrix& dtable, Matrix& dmetric) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    transa_bwd(table.row(t.head), table.row(num_entities + t.relation),
               table.row(t.tail), metric.row(t.relation), dtable.row(t.head),
               dtable.row(num_entities + t.relation), dtable.row(t.tail),
               dmetric.row(t.relation), gscores[i], d, simd);
  }
  profiling::count_flops(10 * static_cast<std::int64_t>(batch.size()) * d);
}

// ---- TransM ---------------------------------------------------------------

void transm_forward(std::span<const Triplet> batch, const Matrix& table,
                    const Matrix& rel_weight, index_t num_entities, Norm norm,
                    float* scores) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float acc = hrt_fwd(table.row(t.head),
                              table.row(num_entities + t.relation),
                              table.row(t.tail), d, norm, simd);
    const float dist = norm == Norm::kL2 ? std::sqrt(acc) : acc;
    scores[i] = rel_weight.at(t.relation, 0) * dist;
  }
  profiling::count_flops(5 * static_cast<std::int64_t>(batch.size()) * d);
}

void transm_backward(std::span<const Triplet> batch, const Matrix& table,
                     const Matrix& rel_weight, index_t num_entities, Norm norm,
                     const float* gscores, Matrix& dtable, Matrix& dweight) {
  const index_t d = table.cols();
  const bool simd = simd_enabled();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = table.row(t.head);
    const float* r = table.row(num_entities + t.relation);
    const float* tl = table.row(t.tail);
    // Recompute the norm (score = w·norm would divide by a clamped weight;
    // one extra fused read keeps the math identical to the autograd chain).
    const float acc = hrt_fwd(h, r, tl, d, norm, simd);
    const float dist = norm == Norm::kL2 ? std::sqrt(acc) : acc;
    const float w = rel_weight.at(t.relation, 0);
    dweight.at(t.relation, 0) += gscores[i] * dist;
    const float gdist = gscores[i] * w;  // mul-node backward
    float* dh = dtable.row(t.head);
    float* dr = dtable.row(num_entities + t.relation);
    float* dt = dtable.row(t.tail);
    if (norm == Norm::kL2) {
      hrt_bwd_scaled(h, r, tl, dh, dr, dt, l2_scale(dist, gdist), d, simd);
    } else {
      hrt_bwd_sign(h, r, tl, dh, dr, dt, gdist, d, simd);
    }
  }
  profiling::count_flops(12 * static_cast<std::int64_t>(batch.size()) * d);
}

// ---- TransH ---------------------------------------------------------------

void transh_forward(std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& normals, const Matrix& transfers, Norm norm,
                    float* scores) {
  const index_t d = entities.cols();
  const bool simd = simd_enabled();
  Matrix scratch(1, d);  // Workspace-pooled row buffer for u
  float* u = scratch.data();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = entities.row(t.head);
    const float* tl = entities.row(t.tail);
    const float* w = normals.row(t.relation);
    const float* dr = transfers.row(t.relation);
    const float wdot = diff_dot(w, h, tl, d, simd);
    transh_u(h, tl, dr, w, wdot, u, d, simd);
    scores[i] = norm == Norm::kL2 ? std::sqrt(simd::squared_norm(u, d, simd))
                                  : l1_norm(u, d, simd);
  }
  profiling::count_flops(9 * static_cast<std::int64_t>(batch.size()) * d);
}

void transh_backward(std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& normals, const Matrix& transfers, Norm norm,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& dnormals, Matrix& dtransfers) {
  const index_t d = entities.cols();
  const bool simd = simd_enabled();
  Matrix scratch(1, d);
  float* u = scratch.data();  // becomes du in place
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = entities.row(t.head);
    const float* tl = entities.row(t.tail);
    const float* w = normals.row(t.relation);
    const float* dr = transfers.row(t.relation);
    const float wdot = diff_dot(w, h, tl, d, simd);
    transh_u(h, tl, dr, w, wdot, u, d, simd);
    if (norm == Norm::kL2) {
      simd::scale(u, d, l2_scale(scores[i], gscores[i]), simd);  // du = s·u
    } else {
      sign_scale(u, gscores[i], d, simd);  // du = g·sign(u)
    }
    const float a = simd::dot(u, w, d, simd);  // duᵀw
    float* dh = dentities.row(t.head);
    float* dt = dentities.row(t.tail);
    // d(h − t) = du − (duᵀw)·w   [scale_rows + row_dot backward, fused]
    simd::add(dh, u, d, simd);
    simd::axpy(dh, w, -a, d, simd);
    simd::sub(dt, u, d, simd);
    simd::axpy(dt, w, a, d, simd);
    // dd_r = du; dw = −wdot·du − (duᵀw)·(h − t)
    simd::add(dtransfers.row(t.relation), u, d, simd);
    float* dw = dnormals.row(t.relation);
    simd::axpy(dw, u, -wdot, d, simd);
    diff_axpy(dw, h, tl, -a, d, simd);
  }
  profiling::count_flops(20 * static_cast<std::int64_t>(batch.size()) * d);
}

// ---- TransD ---------------------------------------------------------------

void transd_forward(std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& entity_proj, const Matrix& relations,
                    const Matrix& relation_proj, Norm norm, float* scores) {
  const index_t d = entities.cols();
  const bool simd = simd_enabled();
  Matrix scratch(1, d);
  float* u = scratch.data();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = entities.row(t.head);
    const float* tl = entities.row(t.tail);
    const float* hp = entity_proj.row(t.head);
    const float* tp = entity_proj.row(t.tail);
    const float* r = relations.row(t.relation);
    const float* rp = relation_proj.row(t.relation);
    const float s = simd::dot(hp, h, d, simd) - simd::dot(tp, tl, d, simd);
    transd_u(h, tl, r, rp, s, u, d, simd);
    scores[i] = norm == Norm::kL2 ? std::sqrt(simd::squared_norm(u, d, simd))
                                  : l1_norm(u, d, simd);
  }
  profiling::count_flops(11 * static_cast<std::int64_t>(batch.size()) * d);
}

void transd_backward(std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& entity_proj, const Matrix& relations,
                     const Matrix& relation_proj, Norm norm,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& dentity_proj,
                     Matrix& drelations, Matrix& drelation_proj) {
  const index_t d = entities.cols();
  const bool simd = simd_enabled();
  Matrix scratch(1, d);
  float* u = scratch.data();  // becomes du in place
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = entities.row(t.head);
    const float* tl = entities.row(t.tail);
    const float* hp = entity_proj.row(t.head);
    const float* tp = entity_proj.row(t.tail);
    const float* r = relations.row(t.relation);
    const float* rp = relation_proj.row(t.relation);
    const float s = simd::dot(hp, h, d, simd) - simd::dot(tp, tl, d, simd);
    transd_u(h, tl, r, rp, s, u, d, simd);
    if (norm == Norm::kL2) {
      simd::scale(u, d, l2_scale(scores[i], gscores[i]), simd);
    } else {
      sign_scale(u, gscores[i], d, simd);
    }
    const float a = simd::dot(u, rp, d, simd);  // dL/ds = duᵀr_p
    float* dh = dentities.row(t.head);
    float* dt = dentities.row(t.tail);
    simd::add(dh, u, d, simd);
    simd::axpy(dh, hp, a, d, simd);   // ∂s/∂h = h_p
    simd::sub(dt, u, d, simd);
    simd::axpy(dt, tp, -a, d, simd);  // ∂s/∂t = −t_p
    simd::axpy(dentity_proj.row(t.head), h, a, d, simd);
    simd::axpy(dentity_proj.row(t.tail), tl, -a, d, simd);
    simd::add(drelations.row(t.relation), u, d, simd);
    simd::axpy(drelation_proj.row(t.relation), u, s, d, simd);
  }
  profiling::count_flops(24 * static_cast<std::int64_t>(batch.size()) * d);
}

void rerank_candidates(bool corrupt_tail, std::int64_t anchor,
                       std::int64_t relation,
                       std::span<const index_t> candidates,
                       const ScoreBlockFn& score_block, float* scores) {
  // 512 triplets ≈ 12 KB of staging — resident in L1/L2 alongside the rows
  // the scorer gathers, and no per-query heap allocation.
  constexpr std::size_t kBlock = 512;
  Triplet block[kBlock];
  for (std::size_t offset = 0; offset < candidates.size(); offset += kBlock) {
    const std::size_t n = std::min(kBlock, candidates.size() - offset);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t e = candidates[offset + i];
      block[i] = corrupt_tail ? Triplet{anchor, relation, e}
                              : Triplet{e, relation, anchor};
    }
    score_block(std::span<const Triplet>(block, n), scores + offset);
  }
}

}  // namespace sptx::kernels
