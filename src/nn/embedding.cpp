#include "src/nn/embedding.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstring>

#include "src/common/error.hpp"
#include "src/runtime/parallel.hpp"
#include "src/common/simd.hpp"

namespace sptx::nn {

EmbeddingTable::EmbeddingTable(index_t rows, index_t dim, Rng& rng) {
  Matrix w(rows, dim);
  w.fill_xavier(rng);
  var_ = autograd::Variable::leaf(std::move(w), /*requires_grad=*/true,
                                  "embedding");
}

EmbeddingTable::EmbeddingTable(Matrix init) {
  var_ = autograd::Variable::leaf(std::move(init), /*requires_grad=*/true,
                                  "embedding");
}

void EmbeddingTable::normalize_rows_prefix(
    index_t count, const sparse::RowSupport* touched) {
  SPTX_CHECK(count >= 0 && count <= rows(), "normalize prefix out of range");
  SPTX_CHECK(touched == nullptr || count <= touched->num_entities(),
             "normalize prefix exceeds the row support's entity block");
  // Runs after every optimizer step, so it is a per-batch pass over the
  // entity block (or the touched part of it): vectorized per row, rows split
  // across threads (each row is touched by exactly one task — no
  // synchronization needed).
  Matrix& w = var_.mutable_value();
  const index_t d = w.cols();
  const bool vec = simd_enabled();
  runtime::parallel_for(
      0, count,
      [&](index_t i) {
        if (touched == nullptr || touched->contains(i))
          simd::normalize_l2(w.row(i), d, vec);
      },
      /*grain=*/1024);
}

// ---- StreamingEmbedding ---------------------------------------------------

StreamingEmbedding::StreamingEmbedding(int fd, float* mapped, index_t rows,
                                       index_t dim)
    : fd_(fd), mapped_(mapped), rows_(rows), dim_(dim) {}

StreamingEmbedding::StreamingEmbedding(StreamingEmbedding&& o) noexcept
    : fd_(o.fd_), mapped_(o.mapped_), rows_(o.rows_), dim_(o.dim_) {
  o.fd_ = -1;
  o.mapped_ = nullptr;
}

StreamingEmbedding StreamingEmbedding::create(const std::string& path,
                                              index_t rows, index_t dim,
                                              Rng& rng) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  SPTX_CHECK(fd >= 0, "cannot create " << path);
  const std::size_t bytes =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(dim) *
      sizeof(float);
  SPTX_CHECK(::ftruncate(fd, static_cast<off_t>(bytes)) == 0,
             "ftruncate failed for " << path);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  SPTX_CHECK(mem != MAP_FAILED, "mmap failed for " << path);
  auto* data = static_cast<float*>(mem);
  const float bound = 6.0f / std::sqrt(static_cast<float>(dim));
  for (std::size_t i = 0; i < static_cast<std::size_t>(rows) *
                                  static_cast<std::size_t>(dim);
       ++i) {
    data[i] = rng.uniform(-bound, bound);
  }
  return StreamingEmbedding(fd, data, rows, dim);
}

StreamingEmbedding StreamingEmbedding::open(const std::string& path,
                                            index_t rows, index_t dim) {
  const int fd = ::open(path.c_str(), O_RDWR);
  SPTX_CHECK(fd >= 0, "cannot open " << path);
  const std::size_t bytes =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(dim) *
      sizeof(float);
  struct stat st {};
  SPTX_CHECK(::fstat(fd, &st) == 0 &&
                 static_cast<std::size_t>(st.st_size) >= bytes,
             "embedding file " << path << " smaller than " << bytes
                               << " bytes");
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  SPTX_CHECK(mem != MAP_FAILED, "mmap failed for " << path);
  return StreamingEmbedding(fd, static_cast<float*>(mem), rows, dim);
}

StreamingEmbedding::~StreamingEmbedding() {
  if (mapped_ != nullptr) {
    ::munmap(mapped_, static_cast<std::size_t>(rows_) *
                          static_cast<std::size_t>(dim_) * sizeof(float));
  }
  if (fd_ >= 0) ::close(fd_);
}

Matrix StreamingEmbedding::load_rows(index_t begin, index_t count) const {
  SPTX_CHECK(begin >= 0 && begin + count <= rows_, "load_rows out of range");
  Matrix out(count, dim_);
  std::memcpy(out.data(), mapped_ + begin * dim_,
              static_cast<std::size_t>(count) *
                  static_cast<std::size_t>(dim_) * sizeof(float));
  return out;
}

void StreamingEmbedding::store_rows(index_t begin, const Matrix& values) {
  SPTX_CHECK(values.cols() == dim_, "store_rows: dim mismatch");
  SPTX_CHECK(begin >= 0 && begin + values.rows() <= rows_,
             "store_rows out of range");
  std::memcpy(mapped_ + begin * dim_, values.data(), values.bytes());
}

void StreamingEmbedding::sync() {
  ::msync(mapped_, static_cast<std::size_t>(rows_) *
                       static_cast<std::size_t>(dim_) * sizeof(float),
          MS_SYNC);
}

}  // namespace sptx::nn
