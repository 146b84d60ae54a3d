#include "src/sparse/spmm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/cpu_features.hpp"
#include "src/runtime/parallel.hpp"
#include "src/common/simd.hpp"
#include "src/profiling/flops.hpp"
#include "src/profiling/timer.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define SPTX_SPMM_X86 1
#include <immintrin.h>
#endif

namespace sptx {

namespace {

// Incidence matrices hold only ±1 coefficients, so the multiply in the
// kernel's FMA folds into an add/sub on any optimized implementation (and
// in hardware a multiply by ±1 costs nothing extra). FLOP accounting
// reflects that: 1 FLOP per (nonzero × column) for unit-valued matrices,
// 2 otherwise. The ±1 scan itself is cached on the matrix.
std::int64_t spmm_flops(const Csr& a, index_t dim) {
  return (a.unit_values() ? 1 : 2) * a.nnz() * dim;
}

// Plain CSR row loop: for each output row, accumulate val * X[col, :].
void kernel_naive(const Csr& a, const Matrix& x, Matrix& c) {
  const index_t d = x.cols();
  for (index_t i = 0; i < a.rows; ++i) {
    float* crow = c.row(i);
    for (index_t j = 0; j < d; ++j) crow[j] = 0.0f;
    for (index_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const float v = a.values[static_cast<std::size_t>(k)];
      const float* xrow = x.row(a.col_idx[static_cast<std::size_t>(k)]);
      for (index_t j = 0; j < d; ++j) crow[j] += v * xrow[j];
    }
  }
}

// Unrolled-by-4 axpy over the embedding dimension (the scalar kernels' inner
// loop). With ±1 values the multiply folds into add/sub, but we keep the FMA
// form so the kernels work for general sparse matrices too.
inline void axpy_unrolled(float v, const float* __restrict xrow,
                          float* __restrict crow, index_t d) {
  index_t j = 0;
  const index_t d4 = d - (d % 4);
  for (; j < d4; j += 4) {
    crow[j + 0] += v * xrow[j + 0];
    crow[j + 1] += v * xrow[j + 1];
    crow[j + 2] += v * xrow[j + 2];
    crow[j + 3] += v * xrow[j + 3];
  }
  for (; j < d; ++j) crow[j] += v * xrow[j];
}

// ---- SIMD engine ---------------------------------------------------------
//
// The register-blocked formulation: for each output row, column panels of
// 16 (then 8) floats are held in ymm accumulators while the row's nonzeros
// stream past, so C is written exactly once per element with no zero-fill
// pass and no intermediate load/store round-trips — the scalar kernels pay
// one C-row round-trip per nonzero. With ±1 coefficients the FMA becomes a
// pure add/sub and the values array is only consulted for its sign.

// Scalar mirror of the AVX2 kernel over the same row-range × column-panel
// tile (compiler-vectorized where possible). Also serves as the
// accumulate-mode scalar path for the backward gather.
void rows_panel_scalar(const Csr& a, const Matrix& x, Matrix& c, index_t i0,
                       index_t i1, index_t j0, index_t j1, bool accumulate) {
  const index_t width = j1 - j0;
  const index_t stride = x.cols();
  const float* xbase = x.data() + j0;
  const index_t* cols = a.col_idx.data();
  const float* vals = a.values.data();
  for (index_t i = i0; i < i1; ++i) {
    const index_t k0 = a.row_ptr[static_cast<std::size_t>(i)];
    const index_t k1 = a.row_ptr[static_cast<std::size_t>(i) + 1];
    float* crow = c.row(i) + j0;
    if (!accumulate) {
      std::memset(crow, 0, static_cast<std::size_t>(width) * sizeof(float));
    }
    for (index_t k = k0; k < k1; ++k) {
      axpy_unrolled(vals[k], xbase + cols[k] * stride, crow, width);
    }
  }
}

#ifdef SPTX_SPMM_X86

// Row-range × column-panel AVX2/FMA kernel. `accumulate` seeds the
// accumulators from C instead of zero (backward gather mode). Compiled with
// a target attribute so it exists in portable builds; callers must gate on
// simd_enabled().
//
// Incidence rows have 1–3 nonzeros (selection / ht / hrt builders), so the
// kernel fuses those shapes: the row's X pointers and broadcast values are
// hoisted into registers once and the column loop runs branch-free with the
// output row held entirely in accumulators — C is written exactly once per
// element, with no zero-fill pass and no per-nonzero C round-trips. A ±1
// coefficient costs nothing extra: it rides the same FMA slot a general
// value uses (the multiply folds into the add in hardware), which is why the
// fused paths do not branch on sign; the variable-nnz fallback does take
// the explicit add/sub path for unit-valued matrices.
//
// When the dense operand outgrows the fast cache levels every nonzero is a
// memory-latency event, so the kernel software-prefetches the X rows
// simd::kPrefetchAhead output rows ahead (`prefetch`, gated by the caller on
// x's footprint against simd::kPrefetchMinBytes).

// Outputs bigger than the fast cache stream straight back to memory anyway;
// non-temporal stores skip the read-for-ownership of every C line, cutting
// the output traffic of the (bandwidth-bound) kernel by a third. Below the
// threshold regular stores keep C cache-hot for the consumer (training
// immediately reduces the SpMM result to row norms).
constexpr std::size_t kStreamMinBytes = 8u << 20;

__attribute__((target("avx2,fma"))) void rows_panel_avx2(
    const Csr& a, const Matrix& x, Matrix& c, index_t i0, index_t i1,
    index_t j0, index_t j1, bool unit, bool accumulate, bool prefetch,
    bool stream) {
  // Non-temporal stores need 32-byte-aligned addresses: buffers are 64-byte
  // aligned, so every row start (and every +8 step from an 8-aligned j0) is
  // aligned iff the row stride is a multiple of 8 floats. Accumulate mode
  // reads C anyway, so streaming would buy nothing there.
  const bool nt = stream && !accumulate && c.cols() % 8 == 0 && j0 % 8 == 0;
#define SPTX_STORE(p, v)                   \
  do {                                     \
    if (nt) {                              \
      _mm256_stream_ps((p), (v));          \
    } else {                               \
      _mm256_storeu_ps((p), (v));          \
    }                                      \
  } while (0)
  const index_t stride = x.cols();
  const float* xbase = x.data();
  const index_t* cols = a.col_idx.data();
  const float* vals = a.values.data();
  for (index_t i = i0; i < i1; ++i) {
    if (prefetch) {
      const index_t ipf = i + simd::kPrefetchAhead;
      if (ipf < i1) {
        for (index_t k = a.row_ptr[static_cast<std::size_t>(ipf)];
             k < a.row_ptr[static_cast<std::size_t>(ipf) + 1]; ++k) {
          const char* p =
              reinterpret_cast<const char*>(xbase + cols[k] * stride + j0);
          const std::size_t len =
              static_cast<std::size_t>(j1 - j0) * sizeof(float);
          for (std::size_t off = 0; off < len; off += 64) {
            _mm_prefetch(p + off, _MM_HINT_T0);
          }
        }
      }
    }
    const index_t k0 = a.row_ptr[static_cast<std::size_t>(i)];
    const index_t k1 = a.row_ptr[static_cast<std::size_t>(i) + 1];
    const index_t row_nnz = k1 - k0;
    float* crow = c.row(i);
    index_t j = j0;
    if (row_nnz == 3) {
      // hrt incidence shape: c = v0·x0 + v1·x1 + v2·x2 in registers.
      const float* x0 = xbase + cols[k0] * stride;
      const float* x1 = xbase + cols[k0 + 1] * stride;
      const float* x2 = xbase + cols[k0 + 2] * stride;
      const __m256 v0 = _mm256_set1_ps(vals[k0]);
      const __m256 v1 = _mm256_set1_ps(vals[k0 + 1]);
      const __m256 v2 = _mm256_set1_ps(vals[k0 + 2]);
      for (; j + 16 <= j1; j += 16) {
        __m256 acc0 = accumulate
                          ? _mm256_fmadd_ps(_mm256_loadu_ps(x0 + j), v0,
                                            _mm256_loadu_ps(crow + j))
                          : _mm256_mul_ps(_mm256_loadu_ps(x0 + j), v0);
        __m256 acc1 = accumulate
                          ? _mm256_fmadd_ps(_mm256_loadu_ps(x0 + j + 8), v0,
                                            _mm256_loadu_ps(crow + j + 8))
                          : _mm256_mul_ps(_mm256_loadu_ps(x0 + j + 8), v0);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x1 + j), v1, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x1 + j + 8), v1, acc1);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x2 + j), v2, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x2 + j + 8), v2, acc1);
        SPTX_STORE(crow + j, acc0);
        SPTX_STORE(crow + j + 8, acc1);
      }
      for (; j + 8 <= j1; j += 8) {
        __m256 acc = accumulate
                         ? _mm256_fmadd_ps(_mm256_loadu_ps(x0 + j), v0,
                                           _mm256_loadu_ps(crow + j))
                         : _mm256_mul_ps(_mm256_loadu_ps(x0 + j), v0);
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(x1 + j), v1, acc);
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(x2 + j), v2, acc);
        SPTX_STORE(crow + j, acc);
      }
      for (; j < j1; ++j) {
        const float base = accumulate ? crow[j] : 0.0f;
        crow[j] = base + vals[k0] * x0[j] + vals[k0 + 1] * x1[j] +
                  vals[k0 + 2] * x2[j];
      }
      continue;
    }
    if (row_nnz == 2) {
      // ht incidence shape: c = v0·x0 + v1·x1.
      const float* x0 = xbase + cols[k0] * stride;
      const float* x1 = xbase + cols[k0 + 1] * stride;
      const __m256 v0 = _mm256_set1_ps(vals[k0]);
      const __m256 v1 = _mm256_set1_ps(vals[k0 + 1]);
      for (; j + 8 <= j1; j += 8) {
        __m256 acc = accumulate
                         ? _mm256_fmadd_ps(_mm256_loadu_ps(x0 + j), v0,
                                           _mm256_loadu_ps(crow + j))
                         : _mm256_mul_ps(_mm256_loadu_ps(x0 + j), v0);
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(x1 + j), v1, acc);
        SPTX_STORE(crow + j, acc);
      }
      for (; j < j1; ++j) {
        const float base = accumulate ? crow[j] : 0.0f;
        crow[j] = base + vals[k0] * x0[j] + vals[k0 + 1] * x1[j];
      }
      continue;
    }
    if (row_nnz == 1) {
      // selection shape: c = v0·x0 (a gather row).
      const float* x0 = xbase + cols[k0] * stride;
      const __m256 v0 = _mm256_set1_ps(vals[k0]);
      for (; j + 8 <= j1; j += 8) {
        const __m256 acc =
            accumulate ? _mm256_fmadd_ps(_mm256_loadu_ps(x0 + j), v0,
                                         _mm256_loadu_ps(crow + j))
                       : _mm256_mul_ps(_mm256_loadu_ps(x0 + j), v0);
        SPTX_STORE(crow + j, acc);
      }
      for (; j < j1; ++j) {
        crow[j] = (accumulate ? crow[j] : 0.0f) + vals[k0] * x0[j];
      }
      continue;
    }
    if (row_nnz == 0) {
      if (!accumulate) {
        for (; j + 8 <= j1; j += 8) {
          SPTX_STORE(crow + j, _mm256_setzero_ps());
        }
        for (; j < j1; ++j) crow[j] = 0.0f;
      }
      continue;
    }
    // Variable-nnz fallback (general sparse matrices): accumulators stay in
    // registers per 16-column panel while the row's nonzeros stream past.
    for (; j + 16 <= j1; j += 16) {
      __m256 acc0, acc1;
      if (accumulate) {
        acc0 = _mm256_loadu_ps(crow + j);
        acc1 = _mm256_loadu_ps(crow + j + 8);
      } else {
        acc0 = _mm256_setzero_ps();
        acc1 = _mm256_setzero_ps();
      }
      if (unit) {
        for (index_t k = k0; k < k1; ++k) {
          const float* xrow = xbase + cols[k] * stride + j;
          if (vals[k] > 0.0f) {
            acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(xrow));
            acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(xrow + 8));
          } else {
            acc0 = _mm256_sub_ps(acc0, _mm256_loadu_ps(xrow));
            acc1 = _mm256_sub_ps(acc1, _mm256_loadu_ps(xrow + 8));
          }
        }
      } else {
        for (index_t k = k0; k < k1; ++k) {
          const float* xrow = xbase + cols[k] * stride + j;
          const __m256 v = _mm256_set1_ps(vals[k]);
          acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(xrow), v, acc0);
          acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(xrow + 8), v, acc1);
        }
      }
      SPTX_STORE(crow + j, acc0);
      SPTX_STORE(crow + j + 8, acc1);
    }
    for (; j + 8 <= j1; j += 8) {
      __m256 acc =
          accumulate ? _mm256_loadu_ps(crow + j) : _mm256_setzero_ps();
      if (unit) {
        for (index_t k = k0; k < k1; ++k) {
          const __m256 xv = _mm256_loadu_ps(xbase + cols[k] * stride + j);
          acc = vals[k] > 0.0f ? _mm256_add_ps(acc, xv)
                               : _mm256_sub_ps(acc, xv);
        }
      } else {
        for (index_t k = k0; k < k1; ++k) {
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(xbase + cols[k] * stride + j),
                                _mm256_set1_ps(vals[k]), acc);
        }
      }
      SPTX_STORE(crow + j, acc);
    }
    for (; j < j1; ++j) {
      float acc = accumulate ? crow[j] : 0.0f;
      for (index_t k = k0; k < k1; ++k) {
        acc += vals[k] * xbase[cols[k] * stride + j];
      }
      crow[j] = acc;
    }
  }
  if (nt) _mm_sfence();
#undef SPTX_STORE
}

#endif  // SPTX_SPMM_X86

// Dispatch for a row range × column panel: AVX2 when the cpu allows it,
// scalar mirror otherwise.
void rows_simd(const Csr& a, const Matrix& x, Matrix& c, index_t i0,
               index_t i1, index_t j0, index_t j1, bool accumulate) {
#ifdef SPTX_SPMM_X86
  if (simd_enabled()) {
    rows_panel_avx2(a, x, c, i0, i1, j0, j1, a.unit_values(), accumulate,
                    /*prefetch=*/x.bytes() >= simd::kPrefetchMinBytes,
                    /*stream=*/c.bytes() >= kStreamMinBytes);
    return;
  }
#endif
  rows_panel_scalar(a, x, c, i0, i1, j0, j1, accumulate);
}

// Parallel forward: dynamic parallel over row blocks, column panels inside
// a block (keeps a block's CSR metadata and the touched X panels cache-hot),
// SIMD inner loop. Panels start on 512-float boundaries, so every column
// runs the same 16/8/scalar loop split as in the serial pass.
void rows_parallel(const Csr& a, const Matrix& x, Matrix& c) {
  constexpr index_t kRowBlock = 128;
  constexpr index_t kPanel = 512;  // floats per panel (2 KiB)
  const index_t d = x.cols();
  const index_t blocks = (a.rows + kRowBlock - 1) / kRowBlock;
  runtime::parallel_for(
      0, blocks,
      [&](index_t b) {
        const index_t i0 = b * kRowBlock;
        const index_t i1 = std::min<index_t>(i0 + kRowBlock, a.rows);
        for (index_t j0 = 0; j0 < d; j0 += kPanel) {
          rows_simd(a, x, c, i0, i1, j0, std::min<index_t>(j0 + kPanel, d),
                    /*accumulate=*/false);
        }
      },
      /*grain=*/1);
}

// ---- Transposed backward: nnz-balanced tasks ------------------------------
//
// The gather backward runs the accumulate-mode kernel over rows of Aᵀ, one
// row per dX row. Those rows are far from uniform: in an hrt incidence the
// relation columns collect a whole batch's worth of nonzeros in a few rows
// (the last rows of Aᵀ), so fixed row blocks leave one lane with a third of
// the work. Tasks are cut by cumulative nonzeros instead, and a row heavier
// than one task is split into column panels. Every dX element still sees
// the same operations in the same order — a panel boundary only changes
// which task runs a column, and panels start on 16-float boundaries so the
// kernel's 16/8/scalar loop split per column is unchanged.

/// One backward task: rows [i0, i1) of Aᵀ, dX columns [j0, j1).
struct PanelTask {
  index_t i0, i1, j0, j1;
};

/// Tasks per pool lane: enough slack for lanes claiming tasks from the
/// region cursor to even out the tasks' unequal gather costs.
constexpr index_t kBackwardTasksPerLane = 8;
/// Fewest nonzeros worth a task of their own (dispatch cost floor).
constexpr index_t kBackwardMinTaskNnz = 1024;
/// Column-panel alignment in floats: one 64-byte line, and a multiple of
/// the kernel's 16-wide main loop.
constexpr index_t kPanelAlign = 16;

std::vector<PanelTask> balance_by_nnz(const Csr& at, index_t d, int lanes) {
  const index_t slots = kBackwardTasksPerLane * std::max(lanes, 1);
  const index_t target =
      std::max(kBackwardMinTaskNnz, (at.nnz() + slots - 1) / slots);
  const std::vector<index_t>& rp = at.row_ptr;
  std::vector<PanelTask> tasks;
  index_t i = 0;
  while (i < at.rows) {
    // Furthest row end whose span from row i holds at most `target`.
    const auto end = std::upper_bound(rp.begin() + i + 1, rp.end(),
                                      rp[static_cast<std::size_t>(i)] + target);
    const index_t i1 = static_cast<index_t>(end - rp.begin()) - 1;
    if (i1 > i) {
      tasks.push_back({i, i1, 0, d});
      i = i1;
      continue;
    }
    // Row i alone outweighs a task: split its columns.
    const index_t row_nnz = rp[static_cast<std::size_t>(i) + 1] -
                            rp[static_cast<std::size_t>(i)];
    const index_t panels =
        std::min((d + kPanelAlign - 1) / kPanelAlign,
                 (row_nnz + target - 1) / target);
    const index_t width =
        ((d + panels - 1) / panels + kPanelAlign - 1) / kPanelAlign *
        kPanelAlign;
    for (index_t j0 = 0; j0 < d; j0 += width) {
      tasks.push_back({i, i + 1, j0, std::min(j0 + width, d)});
    }
    ++i;
  }
  return tasks;
}

}  // namespace

// ---- Entry points ---------------------------------------------------------

void spmm_csr_into(const Csr& a, const Matrix& x, Matrix& c) {
  SPTX_CHECK(x.rows() == a.cols,
             "spmm: A is " << a.rows << "x" << a.cols << ", X is "
                           << x.shape_str());
  SPTX_CHECK(c.rows() == a.rows && c.cols() == x.cols(),
             "spmm: output shape " << c.shape_str());
  profiling::ScopedHotspot hotspot("sptx::spmm_csr");
  profiling::count_flops(spmm_flops(a, x.cols()));
  // Without AVX2+FMA (or with SPTX_NO_SIMD) both loops run the scalar
  // mirror.
  const std::int64_t work = a.nnz() * x.cols();
  if (runtime::num_threads() > 1 && work >= kSpmmParallelMinWork) {
    rows_parallel(a, x, c);
  } else {
    rows_simd(a, x, c, 0, a.rows, 0, x.cols(), /*accumulate=*/false);
  }
}

Matrix spmm_csr(const Csr& a, const Matrix& x) {
  Matrix c = Matrix::uninitialized(a.rows, x.cols());
  spmm_csr_into(a, x, c);
  return c;
}

Matrix spmm_csr_reference(const Csr& a, const Matrix& x) {
  SPTX_CHECK(x.rows() == a.cols,
             "spmm: A is " << a.rows << "x" << a.cols << ", X is "
                           << x.shape_str());
  Matrix c = Matrix::uninitialized(a.rows, x.cols());
  kernel_naive(a, x, c);
  return c;
}

bool spmm_backward_uses_transpose(const Csr& a, index_t dim) {
  // The gather reformulation exists for its conflict-free parallelism: it
  // sweeps every dX row (mostly empty for incidence columns) while the
  // scatter streams g sequentially, so single-threaded the scatter wins —
  // the gather only pays off when several threads can split the dX rows AND
  // the per-call work clears the O(nnz + cols) transpose build. With cached
  // batch plans the transpose is built once and reused every epoch, but the
  // heuristic stays conservative so uncached callers never pay a full-table
  // transpose to replace a few thousand axpys.
  const std::int64_t work = a.nnz() * dim;
  return runtime::num_threads() > 1 && work >= kSpmmParallelMinWork / 8 &&
         work >= 8 * (a.nnz() + a.cols);
}

void spmm_csr_transposed_accumulate(const Csr& a, const Matrix& g,
                                    Matrix& dx) {
  SPTX_CHECK(g.rows() == a.rows,
             "spmm^T: A is " << a.rows << "x" << a.cols << ", g is "
                             << g.shape_str());
  SPTX_CHECK(dx.rows() == a.cols && dx.cols() == g.cols(),
             "spmm^T: dx shape " << dx.shape_str());
  profiling::ScopedHotspot hotspot("sptx::spmm_csr_backward");
  profiling::count_flops(spmm_flops(a, g.cols()));
  const index_t d = g.cols();

  if (spmm_backward_uses_transpose(a, d)) {
    // dX += Aᵀ·g as a forward SpMM over the cached transpose, run in
    // accumulate mode: every dX element is written by exactly one task, so
    // the gather parallelizes with no atomics and no per-thread buffers.
    const Csr& at = a.transposed();
    const std::vector<PanelTask> tasks =
        balance_by_nnz(at, d, runtime::num_threads());
    runtime::parallel_for(
        0, static_cast<index_t>(tasks.size()),
        [&](index_t t) {
          const PanelTask& task = tasks[static_cast<std::size_t>(t)];
          rows_simd(at, g, dx, task.i0, task.i1, task.j0, task.j1,
                    /*accumulate=*/true);
        },
        /*grain=*/1);
    return;
  }
  // Direct serial scatter (Appendix G without forming Aᵀ); g rows stream
  // sequentially, each nonzero does one vectorized axpy into its dX row.
  const bool vec = simd_enabled();
  for (index_t i = 0; i < a.rows; ++i) {
    const float* grow = g.row(i);
    for (index_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      simd::axpy(dx.row(a.col_idx[static_cast<std::size_t>(k)]), grow,
                 a.values[static_cast<std::size_t>(k)], d, vec);
    }
  }
}

}  // namespace sptx
