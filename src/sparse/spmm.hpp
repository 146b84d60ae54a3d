// Sparse-dense matrix multiplication — the paper's core operation.
//
// Forward:  C = A · X        (spmm_csr)
// Backward: dX += Aᵀ · dC    (spmm_csr_transposed_accumulate — Appendix G
//                             shows the gradient of SpMM w.r.t. the dense
//                             operand is another SpMM with the transposed
//                             sparse matrix.)
//
// One entry point per direction; each picks its loop from the pool width and
// the work nnz·d, never from a caller's argument:
//   forward   a serial register-blocked pass (AVX2/FMA; 1-, 2- and 3-nonzero
//             rows — the incidence shapes — run fused, ±1 coefficients take
//             a multiply-free add/sub path) when the pool has one lane or
//             nnz·d < kSpmmParallelMinWork; otherwise the same inner kernel
//             over parallel row blocks × column panels (§2's tiling,
//             unrolling and threading in one loop). Both write every output
//             element in the same order, so they agree bit for bit.
//   backward  a serial scatter, or a parallel gather over the cached
//             transpose; see spmm_csr_transposed_accumulate.
// spmm_csr_reference is the plain row loop the differential tests compare
// against.
//
// SIMD is selected at runtime from cpuid (cpu_features.hpp), so portable
// builds still vectorize on capable hardware; SPTX_NO_SIMD=1 forces the
// scalar mirror, which keeps the same loop structure. Every entry point
// counts FLOPs (2·nnz·d, or nnz·d for ±1-valued matrices where the multiply
// folds away).
#pragma once

#include <cstdint>

#include "src/sparse/sparse_matrix.hpp"
#include "src/tensor/matrix.hpp"

namespace sptx {

/// Work (nnz·d) below which a parallel region costs more than it saves;
/// measured on bench_ablation_kernels' small end. Both directions read it.
inline constexpr std::int64_t kSpmmParallelMinWork = std::int64_t{1} << 18;

/// C = A · X with A in CSR. X must have A.cols rows. Returns (A.rows × d),
/// allocated uninitialised (every output element is written).
Matrix spmm_csr(const Csr& a, const Matrix& x);

/// In-place variant writing into a caller-owned output (avoids allocation
/// in the training loop's hot path). Stale contents are overwritten.
void spmm_csr_into(const Csr& a, const Matrix& x, Matrix& c);

/// C = A · X by the plain serial row loop: the oracle of the differential
/// tests and the baseline of bench_ablation_kernels.
Matrix spmm_csr_reference(const Csr& a, const Matrix& x);

/// Would spmm_csr_transposed_accumulate take the cached-transpose path for
/// (a, dim) at the current pool width? Exposed so batch-plan compilation can
/// pre-build A.transposed() off the training hot path (possibly in the
/// trainer's lookahead task) instead of inside the batch's backward pass.
bool spmm_backward_uses_transpose(const Csr& a, index_t dim);

/// dX += Aᵀ · g where g is (A.rows × d): the SpMM backward pass. Two
/// implementations behind one entry point:
///   * small batches, and any batch on a one-lane pool, scatter row m of g
///     into dX at A's column indices (Appendix G without forming Aᵀ);
///   * large batches on a wider pool reuse A.transposed() — cached on the
///     matrix, built once — and run the forward SIMD kernel in accumulate
///     mode, which turns the serial scatter into a conflict-free parallel
///     gather (each dX element is owned by exactly one task). Tasks are cut
///     by cumulative nonzeros of Aᵀ, and a row heavier than one task (an hrt
///     incidence's relation columns) is split into column panels, so the
///     pool's lanes stay busy. Both paths add each dX element's terms in
///     the same order, so they agree bit for bit on ±1 matrices.
void spmm_csr_transposed_accumulate(const Csr& a, const Matrix& g, Matrix& dx);

}  // namespace sptx
