// Fused TransR: relation-grouped blocked batched-GEMM.
//
// TransR's score ||M_r (h − t) + r|| is the one translation family whose
// hot loop is compute-bound (Figure 2: relation_project + its backward are
// 95% of the profile): every batch row multiplies a (d_r × d) projection
// panel. The autograd path walks rows in batch order, so with randomly
// ordered relations every row faults a different ~16–64 KB M_r panel
// through the cache, and the backward repeats the walk twice (dM outer
// products, dx back-projection).
//
// This kernel executes the batch relation-by-relation (the RelationGroups
// ordering built once per CompiledBatch and cached with the plan), packs
// the (h − t) difference vectors of up to four rows into a contiguous
// panel, and runs a 4-row GEMM micro-kernel against the B-panel M_r: every
// M_r (and, in backward, dM_r) cache line is loaded once per four rows
// instead of once per row, and the rank-4 dM update performs four FMAs per
// load/store pair. The pre-norm expression rows are stashed (Workspace-
// pooled M × d_r matrix) so the backward never re-runs the forward GEMM.
#include <algorithm>
#include <cmath>

#include "src/common/cpu_features.hpp"
#include "src/common/simd.hpp"
#include "src/kernels/fused.hpp"
#include "src/profiling/flops.hpp"

namespace sptx::kernels {

namespace {

constexpr float kNormEps = 1e-12f;
constexpr index_t kPanelRows = 4;  // GEMM micro-kernel height

// ---- scalar micro-kernels -------------------------------------------------

/// out[p] = Σ_q M[p,q] · x[q] for one row.
inline void matvec_s(const float* m, const float* x, float* out, index_t dr,
                     index_t de) {
  for (index_t p = 0; p < dr; ++p) {
    const float* mrow = m + p * de;
    float acc = 0.0f;
    for (index_t q = 0; q < de; ++q) acc += mrow[q] * x[q];
    out[p] = acc;
  }
}

/// Four rows against one B-panel: e_b[p] = Σ_q M[p,q] · x_b[q].
inline void panel4_matvec_s(const float* m, const float* const x[kPanelRows],
                            float* const e[kPanelRows], index_t dr,
                            index_t de) {
  for (index_t p = 0; p < dr; ++p) {
    const float* mrow = m + p * de;
    float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
    for (index_t q = 0; q < de; ++q) {
      const float mv = mrow[q];
      acc0 += mv * x[0][q];
      acc1 += mv * x[1][q];
      acc2 += mv * x[2][q];
      acc3 += mv * x[3][q];
    }
    e[0][p] = acc0;
    e[1][p] = acc1;
    e[2][p] = acc2;
    e[3][p] = acc3;
  }
}

/// Rank-4 update of one dM row: y += Σ_b c_b · x_b.
inline void rank4_axpy_s(float* y, const float* const x[kPanelRows],
                         const float c[kPanelRows], index_t de) {
  for (index_t q = 0; q < de; ++q) {
    y[q] += c[0] * x[0][q] + c[1] * x[1][q] + c[2] * x[2][q] + c[3] * x[3][q];
  }
}

/// Back-projection of one M row into four dx rows: dx_b += c_b · m.
inline void dx4_accum_s(float* const dx[kPanelRows], const float* m,
                        const float c[kPanelRows], index_t de) {
  for (index_t q = 0; q < de; ++q) {
    const float mv = m[q];
    dx[0][q] += c[0] * mv;
    dx[1][q] += c[1] * mv;
    dx[2][q] += c[2] * mv;
    dx[3][q] += c[3] * mv;
  }
}

inline void diff_into_s(const float* h, const float* t, float* x, index_t d) {
  for (index_t j = 0; j < d; ++j) x[j] = h[j] - t[j];
}

// ---- AVX2/FMA micro-kernels -----------------------------------------------

#ifdef SPTX_SIMD_X86

SPTX_TARGET_AVX2 inline void matvec_v(const float* m, const float* x,
                                      float* out, index_t dr, index_t de) {
  for (index_t p = 0; p < dr; ++p) {
    const float* mrow = m + p * de;
    __m256 acc = _mm256_setzero_ps();
    index_t q = 0;
    for (; q + 8 <= de; q += 8) {
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(mrow + q),
                            _mm256_loadu_ps(x + q), acc);
    }
    float v = simd::detail::hsum(acc);
    for (; q < de; ++q) v += mrow[q] * x[q];
    out[p] = v;
  }
}

SPTX_TARGET_AVX2 inline void panel4_matvec_v(const float* m,
                                             const float* const x[kPanelRows],
                                             float* const e[kPanelRows],
                                             index_t dr, index_t de) {
  for (index_t p = 0; p < dr; ++p) {
    const float* mrow = m + p * de;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    index_t q = 0;
    for (; q + 8 <= de; q += 8) {
      const __m256 mv = _mm256_loadu_ps(mrow + q);
      a0 = _mm256_fmadd_ps(mv, _mm256_loadu_ps(x[0] + q), a0);
      a1 = _mm256_fmadd_ps(mv, _mm256_loadu_ps(x[1] + q), a1);
      a2 = _mm256_fmadd_ps(mv, _mm256_loadu_ps(x[2] + q), a2);
      a3 = _mm256_fmadd_ps(mv, _mm256_loadu_ps(x[3] + q), a3);
    }
    float v0 = simd::detail::hsum(a0);
    float v1 = simd::detail::hsum(a1);
    float v2 = simd::detail::hsum(a2);
    float v3 = simd::detail::hsum(a3);
    for (; q < de; ++q) {
      const float mv = mrow[q];
      v0 += mv * x[0][q];
      v1 += mv * x[1][q];
      v2 += mv * x[2][q];
      v3 += mv * x[3][q];
    }
    e[0][p] = v0;
    e[1][p] = v1;
    e[2][p] = v2;
    e[3][p] = v3;
  }
}

SPTX_TARGET_AVX2 inline void rank4_axpy_v(float* y,
                                          const float* const x[kPanelRows],
                                          const float c[kPanelRows],
                                          index_t de) {
  const __m256 c0 = _mm256_set1_ps(c[0]);
  const __m256 c1 = _mm256_set1_ps(c[1]);
  const __m256 c2 = _mm256_set1_ps(c[2]);
  const __m256 c3 = _mm256_set1_ps(c[3]);
  index_t q = 0;
  for (; q + 8 <= de; q += 8) {
    __m256 acc = _mm256_loadu_ps(y + q);
    acc = _mm256_fmadd_ps(c0, _mm256_loadu_ps(x[0] + q), acc);
    acc = _mm256_fmadd_ps(c1, _mm256_loadu_ps(x[1] + q), acc);
    acc = _mm256_fmadd_ps(c2, _mm256_loadu_ps(x[2] + q), acc);
    acc = _mm256_fmadd_ps(c3, _mm256_loadu_ps(x[3] + q), acc);
    _mm256_storeu_ps(y + q, acc);
  }
  for (; q < de; ++q) {
    y[q] += c[0] * x[0][q] + c[1] * x[1][q] + c[2] * x[2][q] + c[3] * x[3][q];
  }
}

SPTX_TARGET_AVX2 inline void dx4_accum_v(float* const dx[kPanelRows],
                                         const float* m,
                                         const float c[kPanelRows],
                                         index_t de) {
  const __m256 c0 = _mm256_set1_ps(c[0]);
  const __m256 c1 = _mm256_set1_ps(c[1]);
  const __m256 c2 = _mm256_set1_ps(c[2]);
  const __m256 c3 = _mm256_set1_ps(c[3]);
  index_t q = 0;
  for (; q + 8 <= de; q += 8) {
    const __m256 mv = _mm256_loadu_ps(m + q);
    _mm256_storeu_ps(dx[0] + q,
                     _mm256_fmadd_ps(c0, mv, _mm256_loadu_ps(dx[0] + q)));
    _mm256_storeu_ps(dx[1] + q,
                     _mm256_fmadd_ps(c1, mv, _mm256_loadu_ps(dx[1] + q)));
    _mm256_storeu_ps(dx[2] + q,
                     _mm256_fmadd_ps(c2, mv, _mm256_loadu_ps(dx[2] + q)));
    _mm256_storeu_ps(dx[3] + q,
                     _mm256_fmadd_ps(c3, mv, _mm256_loadu_ps(dx[3] + q)));
  }
  for (; q < de; ++q) {
    const float mv = m[q];
    dx[0][q] += c[0] * mv;
    dx[1][q] += c[1] * mv;
    dx[2][q] += c[2] * mv;
    dx[3][q] += c[3] * mv;
  }
}

SPTX_TARGET_AVX2 inline void diff_into_v(const float* h, const float* t,
                                         float* x, index_t d) {
  index_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(
        x + j, _mm256_sub_ps(_mm256_loadu_ps(h + j), _mm256_loadu_ps(t + j)));
  }
  for (; j < d; ++j) x[j] = h[j] - t[j];
}

#endif  // SPTX_SIMD_X86

// ---- dispatch wrappers ----------------------------------------------------

inline void matvec(const float* m, const float* x, float* out, index_t dr,
                   index_t de, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return matvec_v(m, x, out, dr, de);
#else
  (void)simd;
#endif
  matvec_s(m, x, out, dr, de);
}

inline void panel4_matvec(const float* m, const float* const x[kPanelRows],
                          float* const e[kPanelRows], index_t dr, index_t de,
                          bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return panel4_matvec_v(m, x, e, dr, de);
#else
  (void)simd;
#endif
  panel4_matvec_s(m, x, e, dr, de);
}

inline void rank4_axpy(float* y, const float* const x[kPanelRows],
                       const float c[kPanelRows], index_t de, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return rank4_axpy_v(y, x, c, de);
#else
  (void)simd;
#endif
  rank4_axpy_s(y, x, c, de);
}

inline void dx4_accum(float* const dx[kPanelRows], const float* m,
                      const float c[kPanelRows], index_t de, bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return dx4_accum_v(dx, m, c, de);
#else
  (void)simd;
#endif
  dx4_accum_s(dx, m, c, de);
}

inline void diff_into(const float* h, const float* t, float* x, index_t d,
                      bool simd) {
#ifdef SPTX_SIMD_X86
  if (simd) return diff_into_v(h, t, x, d);
#else
  (void)simd;
#endif
  diff_into_s(h, t, x, d);
}

inline float norm_of(const float* e, index_t d, Norm norm, bool simd) {
  if (norm == Norm::kL2) return std::sqrt(simd::squared_norm(e, d, simd));
  // L1 TransR is rare: one scalar loop over the short d_r row.
  float acc = 0.0f;
  for (index_t j = 0; j < d; ++j) acc += std::fabs(e[j]);
  return acc;
}

/// du_b[p] from the stashed expression row (L2: s·e, L1: g·sign(e)).
inline void du_from_expr(const float* e, float* du, index_t dr, Norm norm,
                         float score, float g) {
  if (norm == Norm::kL2) {
    const float s = g / std::max(score, kNormEps);
    for (index_t p = 0; p < dr; ++p) du[p] = s * e[p];
  } else {
    for (index_t p = 0; p < dr; ++p)
      du[p] = e[p] > 0.0f ? g : e[p] < 0.0f ? -g : 0.0f;
  }
}

}  // namespace

void transr_forward(const sparse::RelationGroups* groups,
                    std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& relations, const Matrix& projections,
                    index_t rel_dim, Norm norm, float* scores,
                    Matrix* expr_stash) {
  const index_t de = entities.cols();
  const index_t dr = rel_dim;
  const bool simd = simd_enabled();
  Matrix xpanel(kPanelRows, de);  // packed (h − t) diffs, Workspace-pooled
  Matrix epanel(kPanelRows, dr);  // expression rows when there is no stash

  const auto run_block = [&](const index_t* rows, index_t count,
                             index_t rel) {
    const float* mr = projections.row(rel * dr);
    const float* rrow = relations.row(rel);
    const float* x[kPanelRows];
    float* e[kPanelRows];
    for (index_t b = 0; b < count; ++b) {
      const index_t i = rows[b];
      const Triplet& t = batch[static_cast<std::size_t>(i)];
      float* xb = xpanel.row(b);
      diff_into(entities.row(t.head), entities.row(t.tail), xb, de, simd);
      x[b] = xb;
      e[b] = expr_stash ? expr_stash->row(i) : epanel.row(b);
    }
    if (count == kPanelRows) {
      panel4_matvec(mr, x, e, dr, de, simd);
    } else {
      for (index_t b = 0; b < count; ++b) matvec(mr, x[b], e[b], dr, de, simd);
    }
    for (index_t b = 0; b < count; ++b) {
      simd::add(e[b], rrow, dr, simd);  // + r
      scores[rows[b]] = norm_of(e[b], dr, norm, simd);
    }
  };

  if (groups != nullptr) {
    for (std::size_t k = 0; k < groups->rels.size(); ++k) {
      const index_t begin = groups->offsets[k];
      const index_t end = groups->offsets[k + 1];
      const index_t rel = groups->rels[k];
      for (index_t at = begin; at < end; at += kPanelRows) {
        run_block(groups->order.data() + at,
                  std::min<index_t>(kPanelRows, end - at), rel);
      }
    }
  } else {
    // Span-only path (serving score): batch order, one row at a time.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const index_t row = static_cast<index_t>(i);
      run_block(&row, 1, batch[i].relation);
    }
  }
  profiling::count_flops((2 * dr * de + 3 * de + 3 * dr) *
                         static_cast<std::int64_t>(batch.size()));
}

void transr_backward(const sparse::RelationGroups* groups,
                     std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& relations, const Matrix& projections,
                     index_t rel_dim, Norm norm, const Matrix& expr_stash,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& drelations,
                     Matrix& dprojections) {
  SPTX_CHECK(groups != nullptr,
             "fused TransR backward needs the plan's relation groups");
  (void)relations;
  const index_t de = entities.cols();
  const index_t dr = rel_dim;
  const bool simd = simd_enabled();
  Matrix xpanel(kPanelRows, de);   // packed diffs
  Matrix dupanel(kPanelRows, dr);  // per-row dL/d expr
  Matrix dxpanel(kPanelRows, de);  // back-projected entity gradients

  for (std::size_t k = 0; k < groups->rels.size(); ++k) {
    const index_t begin = groups->offsets[k];
    const index_t end = groups->offsets[k + 1];
    const index_t rel = groups->rels[k];
    const float* mr = projections.row(rel * dr);
    float* dmr = dprojections.row(rel * dr);
    float* drel = drelations.row(rel);

    for (index_t at = begin; at < end; at += kPanelRows) {
      const index_t count = std::min<index_t>(kPanelRows, end - at);
      const index_t* rows = groups->order.data() + at;
      const float* x[kPanelRows];
      float* du[kPanelRows];
      float* dx[kPanelRows];
      for (index_t b = 0; b < count; ++b) {
        const index_t i = rows[b];
        const Triplet& t = batch[static_cast<std::size_t>(i)];
        float* xb = xpanel.row(b);
        diff_into(entities.row(t.head), entities.row(t.tail), xb, de, simd);
        x[b] = xb;
        du[b] = dupanel.row(b);
        du_from_expr(expr_stash.row(i), du[b], dr, norm, scores[i],
                     gscores[i]);
        simd::add(drel, du[b], dr, simd);  // dr_rel += du
        dx[b] = dxpanel.row(b);
        std::fill(dx[b], dx[b] + de, 0.0f);
      }
      if (count == kPanelRows) {
        // Rank-4 dM update + shared back-projection: every M_r / dM_r line
        // moves once per four rows.
        float c[kPanelRows];
        for (index_t p = 0; p < dr; ++p) {
          for (index_t b = 0; b < kPanelRows; ++b) c[b] = du[b][p];
          rank4_axpy(dmr + p * de, x, c, de, simd);
          dx4_accum(dx, mr + p * de, c, de, simd);
        }
      } else {
        for (index_t b = 0; b < count; ++b) {
          for (index_t p = 0; p < dr; ++p) {
            const float c = du[b][p];
            simd::axpy(dmr + p * de, x[b], c, de, simd);
            simd::axpy(dx[b], mr + p * de, c, de, simd);
          }
        }
      }
      for (index_t b = 0; b < count; ++b) {
        const Triplet& t = batch[static_cast<std::size_t>(rows[b])];
        simd::add(dentities.row(t.head), dx[b], de, simd);
        simd::sub(dentities.row(t.tail), dx[b], de, simd);
      }
    }
  }
  profiling::count_flops((4 * dr * de + 6 * de + 2 * dr) *
                         static_cast<std::int64_t>(batch.size()));
}

}  // namespace sptx::kernels
