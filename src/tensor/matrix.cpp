#include "src/tensor/matrix.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "src/common/simd.hpp"
#include "src/profiling/flops.hpp"
#include "src/runtime/parallel.hpp"
#include "src/tensor/memory_tracker.hpp"
#include "src/tensor/workspace.hpp"

namespace sptx {

namespace {
constexpr std::size_t kAlignment = 64;  // cache line / AVX-512 vector width

std::size_t padded_capacity(std::size_t raw) {
  return (raw + kAlignment - 1) / kAlignment * kAlignment;
}
}  // namespace

void Matrix::allocate(index_t rows, index_t cols) {
  SPTX_CHECK(rows >= 0 && cols >= 0, "negative shape");
  rows_ = rows;
  cols_ = cols;
  if (size() == 0) {
    data_ = nullptr;
    tracked_bytes_ = 0;
    return;
  }
  const std::size_t raw = bytes();
  const std::size_t padded = padded_capacity(raw);
  // Inside a ScopedWorkspace, same-capacity buffers recycle without touching
  // the allocator or the tracker — the training loop's zero-allocation path.
  if (auto pooled = Workspace::instance().acquire(padded)) {
    data_ = pooled->data;
    tracked_bytes_ = pooled->tracked_bytes;
    return;
  }
  data_ = static_cast<float*>(std::aligned_alloc(kAlignment, padded));
  SPTX_CHECK(data_ != nullptr, "allocation of " << padded << " bytes failed");
  tracked_bytes_ = raw;
  MemoryTracker::instance().on_alloc(raw);
}

void Matrix::release() {
  if (data_ != nullptr) {
    const std::size_t padded = padded_capacity(bytes());
    if (!Workspace::instance().release({data_, tracked_bytes_}, padded)) {
      MemoryTracker::instance().on_free(tracked_bytes_);
      std::free(data_);
    }
    data_ = nullptr;
    tracked_bytes_ = 0;
  }
  rows_ = cols_ = 0;
}

Matrix::Matrix(index_t rows, index_t cols) {
  allocate(rows, cols);
  zero();
}

Matrix Matrix::uninitialized(index_t rows, index_t cols) {
  Matrix m;
  m.allocate(rows, cols);
  return m;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> init) {
  const index_t r = static_cast<index_t>(init.size());
  const index_t c =
      r == 0 ? 0 : static_cast<index_t>(init.begin()->size());
  // Validate before allocate(): a throw from a half-built object skips the
  // destructor, so allocating first would leak the buffer.
  for (const auto& row_init : init) {
    SPTX_CHECK(static_cast<index_t>(row_init.size()) == c,
               "ragged initializer");
  }
  allocate(r, c);
  index_t i = 0;
  for (const auto& row_init : init) {
    index_t j = 0;
    for (float v : row_init) at(i, j++) = v;
    ++i;
  }
}

Matrix::Matrix(const Matrix& other) {
  allocate(other.rows_, other.cols_);
  if (size() > 0) std::memcpy(data_, other.data_, bytes());
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  if (!same_shape(other)) {
    release();
    allocate(other.rows_, other.cols_);
  }
  if (size() > 0) std::memcpy(data_, other.data_, bytes());
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : data_(other.data_),
      rows_(other.rows_),
      cols_(other.cols_),
      tracked_bytes_(other.tracked_bytes_) {
  other.data_ = nullptr;
  other.rows_ = other.cols_ = 0;
  other.tracked_bytes_ = 0;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  release();
  data_ = other.data_;
  rows_ = other.rows_;
  cols_ = other.cols_;
  tracked_bytes_ = other.tracked_bytes_;
  other.data_ = nullptr;
  other.rows_ = other.cols_ = 0;
  other.tracked_bytes_ = 0;
  return *this;
}

Matrix::~Matrix() { release(); }

void Matrix::fill(float v) {
  for (index_t i = 0; i < size(); ++i) data_[i] = v;
}

void Matrix::fill_uniform(Rng& rng, float lo, float hi) {
  for (index_t i = 0; i < size(); ++i) data_[i] = rng.uniform(lo, hi);
}

void Matrix::fill_normal(Rng& rng, float stddev) {
  for (index_t i = 0; i < size(); ++i) data_[i] = stddev * rng.normal();
}

void Matrix::fill_xavier(Rng& rng) {
  const float bound =
      cols_ > 0 ? 6.0f / std::sqrt(static_cast<float>(cols_)) : 0.0f;
  fill_uniform(rng, -bound, bound);
}

void Matrix::add_(const Matrix& o) {
  SPTX_CHECK(same_shape(o), "add_: " << shape_str() << " vs " << o.shape_str());
  profiling::count_flops(size());
  simd::add(data_, o.data_, size(), simd_enabled());
}

void Matrix::sub_(const Matrix& o) {
  SPTX_CHECK(same_shape(o), "sub_: " << shape_str() << " vs " << o.shape_str());
  profiling::count_flops(size());
  simd::sub(data_, o.data_, size(), simd_enabled());
}

void Matrix::mul_(const Matrix& o) {
  SPTX_CHECK(same_shape(o), "mul_: " << shape_str() << " vs " << o.shape_str());
  profiling::count_flops(size());
  simd::mul(data_, o.data_, size(), simd_enabled());
}

void Matrix::scale_(float s) {
  profiling::count_flops(size());
  simd::scale(data_, size(), s, simd_enabled());
}

void Matrix::axpy_(float alpha, const Matrix& o) {
  SPTX_CHECK(same_shape(o),
             "axpy_: " << shape_str() << " vs " << o.shape_str());
  profiling::count_flops(2 * size());
  simd::axpy(data_, o.data_, alpha, size(), simd_enabled());
}

void Matrix::scale_rows_(const Matrix& col) {
  SPTX_CHECK(col.rows() == rows_ && col.cols() == 1,
             "scale_rows_: need " << rows_ << "x1, got " << col.shape_str());
  profiling::count_flops(size());
  for (index_t i = 0; i < rows_; ++i) {
    const float s = col.at(i, 0);
    float* r = row(i);
    for (index_t j = 0; j < cols_; ++j) r[j] *= s;
  }
}

void Matrix::normalize_rows_l2_() {
  profiling::count_flops(3 * size());
  const bool vec = simd_enabled();
  for (index_t i = 0; i < rows_; ++i) simd::normalize_l2(row(i), cols_, vec);
}

float Matrix::sum() const {
  double acc = 0.0;
  for (index_t i = 0; i < size(); ++i) acc += data_[i];
  return static_cast<float>(acc);
}

float Matrix::max_abs() const {
  float m = 0.0f;
  for (index_t i = 0; i < size(); ++i) m = std::max(m, std::fabs(data_[i]));
  return m;
}

float Matrix::squared_norm() const {
  double acc = 0.0;
  for (index_t i = 0; i < size(); ++i)
    acc += static_cast<double>(data_[i]) * data_[i];
  return static_cast<float>(acc);
}

std::string Matrix::shape_str() const {
  std::ostringstream os;
  os << "[" << rows_ << "x" << cols_ << "]";
  return os.str();
}

// ---- Out-of-place helpers -------------------------------------------------

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix c(a);
  c.add_(b);
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix c(a);
  c.sub_(b);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix c(a);
  c.mul_(b);
  return c;
}

Matrix scaled(const Matrix& a, float s) {
  Matrix c(a);
  c.scale_(s);
  return c;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  SPTX_CHECK(a.cols() == b.rows(),
             "matmul: " << a.shape_str() << " x " << b.shape_str());
  Matrix c(a.rows(), b.cols());
  profiling::count_flops(2 * a.rows() * a.cols() * b.cols());
  // i-k-j loop order: streams over B's and C's rows; the k-loop hoists a[i,k]
  // so the inner loop vectorizes.
  for (index_t i = 0; i < a.rows(); ++i) {
    float* crow = c.row(i);
    for (index_t k = 0; k < a.cols(); ++k) {
      const float aik = a.at(i, k);
      if (aik == 0.0f) continue;
      const float* brow = b.row(k);
      for (index_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  SPTX_CHECK(a.rows() == b.rows(),
             "matmul_tn: " << a.shape_str() << "^T x " << b.shape_str());
  Matrix c(a.cols(), b.cols());
  profiling::count_flops(2 * a.rows() * a.cols() * b.cols());
  for (index_t k = 0; k < a.rows(); ++k) {
    const float* arow = a.row(k);
    const float* brow = b.row(k);
    for (index_t i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = c.row(i);
      for (index_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  SPTX_CHECK(a.cols() == b.cols(),
             "matmul_nt: " << a.shape_str() << " x " << b.shape_str() << "^T");
  Matrix c(a.rows(), b.rows());
  profiling::count_flops(2 * a.rows() * a.cols() * b.rows());
  for (index_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (index_t j = 0; j < b.rows(); ++j) {
      const float* brow = b.row(j);
      float acc = 0.0f;
      for (index_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  }
  return c;
}

// The row norms below run row chunks on the pool (runtime::parallel_rows);
// each row's accumulation loop is the serial one, so results are bit-equal
// at any pool width.

Matrix row_l1_norm(const Matrix& x) {
  Matrix out(x.rows(), 1);
  profiling::count_flops(2 * x.size());
  runtime::parallel_rows(x.rows(), x.cols(), [&](index_t i) {
    const float* r = x.row(i);
    float acc = 0.0f;
    for (index_t j = 0; j < x.cols(); ++j) acc += std::fabs(r[j]);
    out.at(i, 0) = acc;
  });
  return out;
}

Matrix row_l2_norm(const Matrix& x) {
  Matrix out = row_squared_l2(x);
  for (index_t i = 0; i < out.rows(); ++i)
    out.at(i, 0) = std::sqrt(out.at(i, 0));
  return out;
}

Matrix row_squared_l2(const Matrix& x) {
  Matrix out(x.rows(), 1);
  profiling::count_flops(2 * x.size());
  runtime::parallel_rows(x.rows(), x.cols(), [&](index_t i) {
    const float* r = x.row(i);
    float acc = 0.0f;
    for (index_t j = 0; j < x.cols(); ++j) acc += r[j] * r[j];
    out.at(i, 0) = acc;
  });
  return out;
}

Matrix row_dot(const Matrix& a, const Matrix& b) {
  SPTX_CHECK(a.same_shape(b),
             "row_dot: " << a.shape_str() << " vs " << b.shape_str());
  Matrix out(a.rows(), 1);
  profiling::count_flops(2 * a.size());
  for (index_t i = 0; i < a.rows(); ++i) {
    const float* ra = a.row(i);
    const float* rb = b.row(i);
    float acc = 0.0f;
    for (index_t j = 0; j < a.cols(); ++j) acc += ra[j] * rb[j];
    out.at(i, 0) = acc;
  }
  return out;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  SPTX_CHECK(a.same_shape(b),
             "max_abs_diff: " << a.shape_str() << " vs " << b.shape_str());
  float m = 0.0f;
  for (index_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  return m;
}

}  // namespace sptx
