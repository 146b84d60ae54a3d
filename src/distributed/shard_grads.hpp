// Shard-gradient plumbing shared by the two DDP executors (threaded
// ddp.cpp and multi-process proc_ddp.cpp).
//
// A shard's gradient contribution is harvested out of a replica's
// accumulation buffers into a compact ParamGrad per parameter — sparse
// (touched rows only) for entity/relation-indexed tables, dense otherwise.
// Both executors reduce ShardGrads in shard-index order, which is the
// bit-identity anchor: WHO computed a shard (which thread, which process,
// a recovery re-run) never affects the reduced gradient. Keeping the
// harvest helper in one header guarantees the two paths cannot drift
// apart arithmetically.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "src/models/model.hpp"
#include "src/sparse/row_support.hpp"

namespace sptx::distributed {

/// One parameter's gradient contribution from one shard. Sparse when the
/// parameter is entity/relation-indexed (only the rows in the shard's
/// incidence support, which is the entire nonzero set), dense otherwise.
struct ParamGrad {
  bool present = false;
  bool dense = false;
  std::vector<index_t> rows;  // sorted touched rows (sparse form)
  Matrix values;              // rows.size()×cols, or the full matrix (dense)
};
using ShardGrads = std::vector<ParamGrad>;

/// Copy the shard's gradient support out of `params` and zero it there, so
/// the worker's accumulation buffers are pristine for its next shard. The
/// extraction is what makes the all-reduce sparse: for an entity table only
/// rows named by the shard's triplets can hold gradient (every backward
/// scatter lands inside the incidence support), so only those rows travel.
/// The rows come from sparse::ParamRows — the same mapping the trainer's
/// row-sparse optimizer step and both executors' step broadcasts use.
inline void harvest_shard_grads(
    std::vector<autograd::Variable>& params,
    const std::vector<models::ParamIndexSpace>& spaces,
    std::span<const Triplet> pos, std::span<const Triplet> neg,
    index_t num_entities, index_t num_relations, ShardGrads& out) {
  sparse::RowSupport touched(num_entities, num_relations);
  touched.add(pos);
  touched.add(neg);
  out.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ParamGrad& pg = out[i];
    Matrix& g = params[i].grad();
    pg.present = true;
    const sparse::ParamRows rows(&touched, spaces[i], g.rows());
    if (rows.all()) {
      pg.dense = true;
      pg.values = g;  // deep copy
      g.zero();
      continue;
    }
    pg.rows = rows.rows();
    const index_t cols = g.cols();
    pg.values = Matrix(static_cast<index_t>(pg.rows.size()), cols);
    for (std::size_t k = 0; k < pg.rows.size(); ++k) {
      std::memcpy(pg.values.row(static_cast<index_t>(k)), g.row(pg.rows[k]),
                  static_cast<std::size_t>(cols) * sizeof(float));
      std::memset(g.row(pg.rows[k]), 0,
                  static_cast<std::size_t>(cols) * sizeof(float));
    }
  }
}

}  // namespace sptx::distributed
