// Sparse matrix storage: COO and CSR.
//
// The paper stores the triplet incidence matrix A ∈ {−1,0,1}^{M×(N+R)} in
// CSR for the CPU SpMM (iSpLib) and COO for the GPU SpMM (DGL g-SpMM),
// §5.5. Here every SpMM runs on CSR; COO is the incidence builders' staging
// format. Conversion is O(nnz).
// Values are float so the same types serve general sparse matrices, but
// incidence matrices only ever hold ±1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/error.hpp"
#include "src/tensor/matrix.hpp"

namespace sptx {

/// Coordinate-format sparse matrix. Entries need not be sorted unless
/// stated; incidence builders emit row-major sorted entries.
struct Coo {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> row_idx;
  std::vector<index_t> col_idx;
  std::vector<float> values;

  index_t nnz() const { return static_cast<index_t>(values.size()); }
  void reserve(std::size_t n) {
    row_idx.reserve(n);
    col_idx.reserve(n);
    values.reserve(n);
  }
  void push(index_t r, index_t c, float v) {
    SPTX_DCHECK(r >= 0 && r < rows && c >= 0 && c < cols, "coo entry");
    row_idx.push_back(r);
    col_idx.push_back(c);
    values.push_back(v);
  }
};

/// Compressed-sparse-row matrix.
struct Csr {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> row_ptr;  // size rows+1
  std::vector<index_t> col_idx;  // size nnz
  std::vector<float> values;     // size nnz

  index_t nnz() const { return static_cast<index_t>(values.size()); }
  index_t row_nnz(index_t r) const { return row_ptr[r + 1] - row_ptr[r]; }

  /// True when every stored coefficient is ±1 (the incidence-matrix
  /// property the SpMM kernels exploit). Scanned once, then cached —
  /// callers must treat the matrix as immutable after the first query.
  bool unit_values() const;

  /// Aᵀ in CSR form, built lazily on first use and cached, so a matrix that
  /// serves both a forward SpMM and its backward pays the O(nnz + cols)
  /// transpose once. Requires the matrix to be immutable after construction
  /// (true for the incidence builders); the first call is not thread-safe —
  /// the trainer takes it on the driving thread before any parallel region.
  const Csr& transposed() const;

  /// Internal caches (treat as private; copying a Csr shares them).
  mutable std::int8_t unit_values_cache = -1;
  mutable std::shared_ptr<const Csr> transpose_cache;
};

/// O(nnz) counting conversion; preserves within-row order of `coo`.
Csr coo_to_csr(const Coo& coo);

/// Inverse conversion (row-major sorted output).
Coo csr_to_coo(const Csr& csr);

/// Explicit transpose in CSR form (counting sort over columns). The SpMM
/// backward either scatters without it (Appendix G) or reuses the cached
/// Csr::transposed(); the free function also serves the tests' reference.
Csr transpose(const Csr& a);

/// Dense rendering for tests.
Matrix to_dense(const Csr& a);
Matrix to_dense(const Coo& a);

}  // namespace sptx
