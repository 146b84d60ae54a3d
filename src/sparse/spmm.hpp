// Sparse-dense matrix multiplication kernels — the paper's core operation.
//
// Forward:  C = A · X        (spmm_csr / spmm_coo)
// Backward: dX = Aᵀ · dC     (spmm_csr_transposed — Appendix G shows the
//                             gradient of SpMM w.r.t. the dense operand is
//                             another SpMM with the transposed sparse matrix.)
//
// Kernels (bench_ablation_kernels compares them):
//   kNaive          plain row loop, the reference implementation (the oracle
//                   of the differential tests)
//   kSimd           AVX2/FMA register-blocked rows; ±1 coefficients take a
//                   multiply-free add/sub path (incidence matrices only ever
//                   hold ±1). Without AVX2+FMA it runs a scalar mirror with
//                   the same loop structure.
//   kTiledParallel  row-block parallel × column panels with the kSimd inner
//                   kernel (or its scalar mirror) — §2's tiling, unrolling
//                   and threading in one kernel
//   kAuto           runtime choice, see spmm_auto_kernel below
//
// Every kernel writes every output element, so spmm_csr allocates its
// result uninitialised (Matrix::uninitialized).
//
// All SIMD paths are selected at runtime from cpuid (cpu_features.hpp), so
// portable builds still vectorize on capable hardware; SPTX_NO_SIMD=1
// forces scalar. All kernels count FLOPs (2·nnz·d, or nnz·d for ±1-valued
// matrices where the multiply folds away).
#pragma once

#include "src/sparse/sparse_matrix.hpp"
#include "src/tensor/matrix.hpp"

namespace sptx {

enum class SpmmKernel {
  kNaive,          // plain row loop
  kSimd,           // AVX2/FMA register-blocked, ±1-specialised, serial
  kTiledParallel,  // parallel row blocks × column panels, SIMD inner loop
  kAuto,           // pick from (nnz, rows, dim, threads) at call time
};

/// The kAuto dispatch heuristic, exposed so tests/benches can interrogate
/// the choice. Decision order:
///   1. SPTX_SPMM_KERNEL=naive|simd|tiled_parallel overrides everything
///      (operator escape hatch).
///   2. kSimd when single-threaded or below the parallel threshold
///      (nnz·d < 2^18, where thread start-up would dominate); kTiledParallel
///      above it. Without AVX2+FMA (or with SPTX_NO_SIMD) both run their
///      scalar mirror.
SpmmKernel spmm_auto_kernel(const Csr& a, index_t dim);

/// C = A · X with A in CSR. X must have A.cols rows. Returns (A.rows × d).
Matrix spmm_csr(const Csr& a, const Matrix& x,
                SpmmKernel kernel = SpmmKernel::kAuto);

/// In-place variant writing into a caller-owned output (avoids allocation
/// in the training loop's hot path).
void spmm_csr_into(const Csr& a, const Matrix& x, Matrix& c,
                   SpmmKernel kernel = SpmmKernel::kAuto);

/// C = A · X with A in COO (the GPU-library format in the paper, §5.5).
Matrix spmm_coo(const Coo& a, const Matrix& x);

/// In-place COO variant (see spmm_csr_into).
void spmm_coo_into(const Coo& a, const Matrix& x, Matrix& c);

/// Would spmm_csr_transposed_accumulate take the cached-transpose path for
/// (a, dim) under the current thread count and SPTX_SPMM_BACKWARD setting?
/// Exposed so batch-plan compilation can pre-build A.transposed() off the
/// training hot path (possibly in the prefetch task) instead of inside
/// the first backward pass of the epoch.
bool spmm_backward_uses_transpose(const Csr& a, index_t dim);

/// dX += Aᵀ · g where g is (A.rows × d): the SpMM backward pass. Two
/// implementations behind one entry point:
///   * small batches scatter row m of g into dX at A's column indices
///     (Appendix G without forming Aᵀ);
///   * large batches reuse A.transposed() — cached on the matrix, built
///     once — and run the forward SIMD kernel in accumulate mode, which
///     turns the serial scatter into a conflict-free parallel gather
///     (each dX element is owned by exactly one task). Tasks are cut by
///     cumulative nonzeros of Aᵀ, and a row heavier than one task (an hrt
///     incidence's relation columns) is split into column panels, so the
///     pool's lanes stay busy. Both paths add each dX element's terms in
///     the same order, so they agree bit for bit on ±1 matrices.
/// SPTX_SPMM_BACKWARD=scatter|transpose overrides the size heuristic.
void spmm_csr_transposed_accumulate(const Csr& a, const Matrix& g, Matrix& dx);

/// Same, but always materialises Aᵀ (uncached) and runs a forward SpMM
/// (ablation / verification path).
Matrix spmm_csr_transposed_explicit(const Csr& a, const Matrix& g);

}  // namespace sptx
