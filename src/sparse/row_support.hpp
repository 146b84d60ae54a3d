// Row support — the rows of the stacked [entities; relations] space that a
// batch touches.
//
// Every gradient a translation-family loss produces lands on the rows its
// triplets name: the head and tail entities and the relation. A RowSupport
// is that set as a bitmap over the stacked row space — bit e for entity e,
// bit N + r for relation r — so a 32,768-triplet batch over YAGO3-10
// (123k entities) costs 15 KB and one pass over the triplets to build.
//
//  * sparse::CompiledBatch builds it at plan compilation when the recipe
//    asks (ScoringRecipe::row_support), so cached plans pay for it once.
//  * The trainer ORs a batch's positive and negative supports and hands the
//    result to nn::Optimizer::step(support) and
//    models::KgeModel::post_step(support), which then update, clear and
//    renormalise only those rows.
//  * The DDP executors build one per shard and per batch for the sparse
//    all-reduce (shard harvest, step broadcast).
//
// ParamRows maps a support onto one parameter matrix through the
// parameter's ParamIndexSpace. It is the one place that mapping is written;
// the optimizer, the shard harvest and both DDP step paths all go through
// it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/kg/triplet.hpp"
#include "src/tensor/matrix.hpp"

namespace sptx::sparse {

/// How a parameter matrix's rows are indexed. Decides which rows a batch's
/// RowSupport covers: for entity/relation-indexed tables only the rows the
/// batch's triplets name carry gradient, so only those rows need updating,
/// clearing or (in DDP) travelling. kDense covers every row — always safe,
/// never wrong, just slower.
enum class ParamIndexSpace {
  kEntity,                  // rows indexed by entity id (N rows)
  kRelation,                // rows indexed by relation id (R rows)
  kEntityRelationStacked,   // [entities; relations] stacking (N + R rows)
  /// R stacked fixed-height blocks, block r belonging to relation r
  /// (TransR's (R·d_r) × d projection stack). Never inferred from shape —
  /// only a model override can claim it, because a coincidentally divisible
  /// dense matrix would silently drop gradient.
  kRelationBlocks,
  kDense,                   // anything else: every row
};

/// Bitmap over the stacked [entities; relations] rows a batch touches.
class RowSupport {
 public:
  RowSupport() = default;
  /// An empty support over N entities and R relations.
  RowSupport(index_t num_entities, index_t num_relations);

  /// Mark head(t), tail(t) and N + relation(t) for every triplet. Ids
  /// outside the vocabulary throw.
  void add(std::span<const Triplet> batch);

  /// *this = a ∪ b. Both must share one vocabulary; reuses this bitmap's
  /// storage, so a trainer that keeps one RowSupport allocates once.
  void assign_union(const RowSupport& a, const RowSupport& b);

  index_t num_entities() const { return num_entities_; }
  index_t num_relations() const { return num_relations_; }

  /// Whether stacked row `row` (entity id, or N + relation id) is marked.
  bool contains(index_t row) const {
    return (words_[static_cast<std::size_t>(row) >> 6] >>
            (static_cast<std::uint64_t>(row) & 63u)) & 1u;
  }
  bool contains_relation(index_t r) const {
    return contains(num_entities_ + r);
  }

  /// Sorted marked entity ids, relation ids, and stacked rows (entity ids
  /// followed by N + relation ids).
  std::vector<index_t> entity_ids() const;
  std::vector<index_t> relation_ids() const;
  std::vector<index_t> stacked_ids() const;

 private:
  /// Marked bits in [begin, end), ascending, each minus `begin`.
  std::vector<index_t> ids_in(index_t begin, index_t end) const;

  index_t num_entities_ = 0;
  index_t num_relations_ = 0;
  std::vector<std::uint64_t> words_;
};

/// The rows of one parameter matrix that a support covers, through the
/// parameter's index space:
///   kEntity, kEntityRelationStacked  row i ↔ stacked row i;
///   kRelation                        row i ↔ stacked row N + i;
///   kRelationBlocks                  row i ↔ relation i / h, h = rows / R;
///   kDense                           every row.
/// A null support covers every row of every parameter.
class ParamRows {
 public:
  /// Throws Error when `rows` does not fit `space` over the support's
  /// vocabulary (a wrongly declared index space).
  ParamRows(const RowSupport* support, ParamIndexSpace space, index_t rows);

  /// True when every row is covered (kDense or a null support).
  bool all() const { return all_; }

  bool covers(index_t row) const {
    switch (space_) {
      case ParamIndexSpace::kRelation:
        return support_->contains_relation(row);
      case ParamIndexSpace::kRelationBlocks:
        return support_->contains_relation(row / block_);
      default:
        return all_ || support_->contains(row);
    }
  }

  /// The covered rows, sorted.
  std::vector<index_t> rows() const;

 private:
  const RowSupport* support_;
  ParamIndexSpace space_;
  index_t rows_;
  index_t block_ = 1;  // kRelationBlocks block height
  bool all_;
};

}  // namespace sptx::sparse
