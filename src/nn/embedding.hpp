// Embedding tables.
//
// EmbeddingTable is the learnable parameter store: a Variable over an
// (rows × dim) matrix with Xavier init (TransE's published initialisation).
// StreamingEmbedding reproduces §4.7.1's memory-mapped tensor support:
// embeddings that do not fit in RAM live in a disk file and are mapped
// read/write, so training touches only the pages a batch needs. Both expose
// the same Variable so models are agnostic to the storage.
#pragma once

#include <string>

#include "src/autograd/variable.hpp"
#include "src/common/rng.hpp"
#include "src/sparse/row_support.hpp"

namespace sptx::nn {

class EmbeddingTable {
 public:
  EmbeddingTable(index_t rows, index_t dim, Rng& rng);
  /// Initialise with explicit values (e.g. pre-trained LLM embeddings).
  EmbeddingTable(Matrix init);

  autograd::Variable& var() { return var_; }
  const autograd::Variable& var() const { return var_; }
  const Matrix& weights() const { return var_.value(); }
  Matrix& mutable_weights() { return var_.mutable_value(); }
  index_t rows() const { return var_.rows(); }
  index_t dim() const { return var_.cols(); }

  /// L2-normalise every row in place (TransE normalises entities per batch).
  /// Rows already of unit norm within float error are left as they are
  /// (simd::normalize_l2), which makes a second pass a no-op.
  void normalize_rows() { var_.mutable_value().normalize_rows_l2_(); }

  /// L2-normalise only the first `count` rows — the entity block of an
  /// entity table or of the stacked [entities; relations] layout, where
  /// relation translations stay free. With `touched`, only the entity rows
  /// it marks: the row-sparse post_step.
  void normalize_rows_prefix(index_t count,
                             const sparse::RowSupport* touched = nullptr);

 private:
  autograd::Variable var_;
};

/// Disk-backed embedding matrix accessed through mmap. Creating with
/// `create` builds (and Xavier-initialises) the backing file; `open` maps an
/// existing one. The mapped region is wrapped in a non-owning Matrix view
/// surfaced as a Variable, so gradients stay in RAM while weights stream
/// from disk — the paper's large-LLM-embedding training mode.
class StreamingEmbedding {
 public:
  static StreamingEmbedding create(const std::string& path, index_t rows,
                                   index_t dim, Rng& rng);
  static StreamingEmbedding open(const std::string& path, index_t rows,
                                 index_t dim);
  ~StreamingEmbedding();

  StreamingEmbedding(StreamingEmbedding&&) noexcept;
  StreamingEmbedding& operator=(StreamingEmbedding&&) = delete;
  StreamingEmbedding(const StreamingEmbedding&) = delete;
  StreamingEmbedding& operator=(const StreamingEmbedding&) = delete;

  index_t rows() const { return rows_; }
  index_t dim() const { return dim_; }
  float* data() { return mapped_; }

  /// Copy a row range into a dense in-RAM matrix (batch staging).
  Matrix load_rows(index_t begin, index_t count) const;
  /// Write a dense matrix back to a row range (after an optimizer step).
  void store_rows(index_t begin, const Matrix& values);
  /// Flush dirty pages to disk.
  void sync();

 private:
  StreamingEmbedding(int fd, float* mapped, index_t rows, index_t dim);

  int fd_ = -1;
  float* mapped_ = nullptr;
  index_t rows_ = 0;
  index_t dim_ = 0;
};

}  // namespace sptx::nn
