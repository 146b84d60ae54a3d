// Dense row-major float32 matrix — the library's only dense tensor type.
//
// The paper's framework stores entity/relation embeddings as dense matrices
// E ∈ R^{(N+R)×d} and all intermediate batch tensors as M×d matrices; a 2-D
// row-major float matrix is therefore the complete dense substrate needed.
// Buffers are 64-byte aligned (cache line / AVX-512 friendly) and registered
// with the MemoryTracker so training-loop footprints can be measured the way
// the paper measures CUDA allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace sptx {

using index_t = std::int64_t;

class Matrix {
 public:
  Matrix() = default;
  /// Allocates rows×cols floats, zero-initialised.
  Matrix(index_t rows, index_t cols);
  /// Allocates rows×cols floats without initialising them (a buffer
  /// recycled through the Workspace keeps its old contents). Only for
  /// outputs whose producer writes every element, e.g. spmm_csr.
  static Matrix uninitialized(index_t rows, index_t cols);
  /// Build a small matrix from nested initializer lists (tests/examples).
  Matrix(std::initializer_list<std::initializer_list<float>> init);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix();

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  std::size_t bytes() const {
    return static_cast<std::size_t>(size()) * sizeof(float);
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  float* row(index_t i) { return data_ + i * cols_; }
  const float* row(index_t i) const { return data_ + i * cols_; }
  std::span<float> row_span(index_t i) {
    return {row(i), static_cast<std::size_t>(cols_)};
  }
  std::span<const float> row_span(index_t i) const {
    return {row(i), static_cast<std::size_t>(cols_)};
  }

  float& at(index_t i, index_t j) {
    SPTX_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index");
    return data_[i * cols_ + j];
  }
  float at(index_t i, index_t j) const {
    SPTX_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index");
    return data_[i * cols_ + j];
  }
  float& operator()(index_t i, index_t j) { return at(i, j); }
  float operator()(index_t i, index_t j) const { return at(i, j); }

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  // ---- In-place fillers -------------------------------------------------
  void fill(float v);
  void zero() { fill(0.0f); }
  /// Uniform in [lo, hi).
  void fill_uniform(Rng& rng, float lo, float hi);
  /// Standard normal scaled by `stddev`.
  void fill_normal(Rng& rng, float stddev = 1.0f);
  /// Xavier/Glorot uniform for an (fan_in=cols) embedding row layout; the
  /// TransE paper's init: U(-6/sqrt(d), 6/sqrt(d)).
  void fill_xavier(Rng& rng);

  // ---- In-place arithmetic ----------------------------------------------
  void add_(const Matrix& o);                  // this += o
  void sub_(const Matrix& o);                  // this -= o
  void mul_(const Matrix& o);                  // this *= o (elementwise)
  void scale_(float s);                        // this *= s
  void axpy_(float alpha, const Matrix& o);    // this += alpha * o
  /// this[i,:] *= col[i] for a (rows×1) column vector.
  void scale_rows_(const Matrix& col);
  /// L2-normalize every row in place (no-op on zero rows and on rows
  /// already of unit norm within float error, so a second call changes no
  /// bits — simd::normalize_l2). TransE renormalizes entity embeddings each
  /// batch; exposed here for that.
  void normalize_rows_l2_();

  // ---- Reductions --------------------------------------------------------
  float sum() const;
  float max_abs() const;
  /// Frobenius-squared norm.
  float squared_norm() const;

  /// String rendering for error messages / small examples.
  std::string shape_str() const;

 private:
  void allocate(index_t rows, index_t cols);
  void release();

  float* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  // Bytes this buffer reported to the MemoryTracker at acquisition. Usually
  // bytes(), but a buffer recycled through the Workspace pool keeps the
  // count of its original allocation (its padded capacity covers both), so
  // alloc/free accounting stays exactly paired.
  std::size_t tracked_bytes_ = 0;
};

// ---- Out-of-place helpers (allocate the result) --------------------------
Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);
Matrix scaled(const Matrix& a, float s);

/// C = A · B (naive register-blocked GEMM; used by TransR projections in
/// the baseline path and by tests — embedding training itself never needs a
/// large dense GEMM, which is the paper's point).
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = Aᵀ · B.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A · Bᵀ.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Row-wise reductions; results are (rows×1) column vectors.
Matrix row_l1_norm(const Matrix& x);
Matrix row_l2_norm(const Matrix& x);
Matrix row_squared_l2(const Matrix& x);
/// Row-wise dot product of equal-shaped matrices → (rows×1).
Matrix row_dot(const Matrix& a, const Matrix& b);

/// Max elementwise absolute difference (test helper).
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace sptx
