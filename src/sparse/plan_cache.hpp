// Compiled-batch plans and their cache — the plan/execute split.
//
// The paper reduces KGE training to SpMMs over per-batch incidence matrices,
// but the seed implementation rebuilt every incidence matrix from raw
// triplets on every batch of every epoch. This header separates the two
// stages:
//
//  * ScoringRecipe — a model's declaration of which incidence structures its
//    forward pass consumes (which builders + auxiliary index vectors). Pure
//    data: compiling a recipe needs the triplets and the vocabulary sizes,
//    never the model's weights, so compilation can run on a background
//    thread while training executes.
//  * CompiledBatch — one batch compiled against a recipe: the (optionally
//    owned) triplets plus every pre-built CSR the recipe names, with the
//    backward-pass transpose pre-warmed when the SpMM engine would use it,
//    and, for training plans, the batch's RowSupport (row_support.hpp).
//    Immutable after compile; shared_ptr so autograd graphs, caches and
//    epoch schedules can share one compilation.
//  * PlanCache — keyed store of CompiledBatches with explicit invalidation.
//    The trainer keys by batch ordinal and invalidates on shuffle /
//    negative-resampling; link-prediction keys by (query, side) to reuse
//    candidate batches across repeated evaluations.
//
// All cache traffic is counted through profiling/counters.hpp so tests can
// assert hit rates and zero-rebuild epochs directly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/thread_annotations.hpp"
#include "src/kg/triplet.hpp"
#include "src/sparse/row_support.hpp"
#include "src/sparse/sparse_matrix.hpp"

namespace sptx::sparse {

/// Batch rows grouped by relation id — the execution order of the fused
/// TransR kernel's relation-blocked batched-GEMM. Group k covers
/// order[offsets[k] .. offsets[k+1]) (row indices into the batch), all of
/// which share relation rels[k], so the relation's projection panel is
/// loaded once per group instead of once per row. Built at plan compilation
/// and cached with the CompiledBatch, it costs nothing on the epochs a
/// PlanCache serves.
struct RelationGroups {
  std::vector<index_t> order;    // batch row ids, grouped by relation
  std::vector<index_t> offsets;  // group k = order[offsets[k], offsets[k+1])
  std::vector<index_t> rels;     // relation id of each group
};

/// Which incidence structures a model's forward pass consumes. Declared by
/// the model (ScoringCoreModel::recipe), executed by CompiledBatch::compile.
struct ScoringRecipe {
  bool hrt = false;                 // build_hrt_incidence_csr (h + r − t)
  bool ht = false;                  // build_ht_incidence_csr (h − t)
  bool relation_selection = false;  // build_relation_selection_csr
  bool head_selection = false;      // build_entity_selection_csr(kHead)
  bool tail_selection = false;      // build_entity_selection_csr(kTail)
  bool shared_triplets = false;     // semiring kernels take the batch itself
  bool relation_indices = false;    // relation_project's per-row index vector
  bool relation_groups = false;     // fused TransR's relation-grouped order
  /// The batch's RowSupport, for the row-sparse optimizer step. Requested
  /// by the trainer, not by models: eval and serving plans never build it.
  bool row_support = false;
  /// Embedding width the incidence will multiply — used only to decide
  /// whether the backward pass would take the cached-transpose path, in
  /// which case compile() pre-builds the transpose off the hot path.
  /// 0 skips the warm-up.
  index_t dim = 0;
  /// Width of the table the relation-selection matrix multiplies, when it
  /// differs from `dim` (TransR's d_r relation space, TransM's scalar
  /// weights) — keeps the warm-up decision honest per structure. 0 = dim.
  index_t relation_dim = 0;

  bool any_incidence() const {
    return hrt || ht || relation_selection || head_selection || tail_selection;
  }
};

/// One batch compiled against a recipe. Immutable after compile().
class CompiledBatch {
 public:
  /// Compile `batch` per `recipe`. When `copy_triplets` is false the span
  /// must outlive the plan (the trainer's contiguous fast path); ownership
  /// is forced whenever the recipe itself needs the triplets by shared_ptr.
  static std::shared_ptr<const CompiledBatch> compile(
      std::span<const Triplet> batch, const ScoringRecipe& recipe,
      index_t num_entities, index_t num_relations, bool copy_triplets);

  /// Compile a batch the caller already staged (shuffled / k-tiled / eval
  /// candidates); the plan takes ownership.
  static std::shared_ptr<const CompiledBatch> compile_owned(
      std::vector<Triplet>&& batch, const ScoringRecipe& recipe,
      index_t num_entities, index_t num_relations);

  std::span<const Triplet> triplets() const { return view_; }
  index_t size() const { return static_cast<index_t>(view_.size()); }

  /// Accessors SPTX_CHECK that the recipe requested the structure — a miss
  /// means the model's recipe() and forward() disagree.
  const std::shared_ptr<const Csr>& hrt() const;
  const std::shared_ptr<const Csr>& ht() const;
  const std::shared_ptr<const Csr>& relation_selection() const;
  const std::shared_ptr<const Csr>& head_selection() const;
  const std::shared_ptr<const Csr>& tail_selection() const;
  const std::shared_ptr<const std::vector<Triplet>>& shared_triplets() const;
  const std::shared_ptr<const std::vector<index_t>>& relation_indices() const;
  const std::shared_ptr<const RelationGroups>& relation_groups() const;
  const RowSupport& row_support() const;

  /// The owned triplet vector when this plan copied its batch, null when it
  /// views caller storage. The fused kernels capture this in their autograd
  /// nodes so plan-owned triplets survive until backward even if the plan
  /// itself is released.
  const std::shared_ptr<const std::vector<Triplet>>& owned_triplets() const {
    return owned_;
  }

 private:
  CompiledBatch() = default;
  void build(const ScoringRecipe& recipe, index_t num_entities,
             index_t num_relations);

  std::shared_ptr<const std::vector<Triplet>> owned_;  // null when viewing
  std::span<const Triplet> view_;
  std::shared_ptr<const Csr> hrt_;
  std::shared_ptr<const Csr> ht_;
  std::shared_ptr<const Csr> relation_selection_;
  std::shared_ptr<const Csr> head_selection_;
  std::shared_ptr<const Csr> tail_selection_;
  std::shared_ptr<const std::vector<index_t>> relation_indices_;
  std::shared_ptr<const RelationGroups> relation_groups_;
  std::optional<RowSupport> row_support_;
};

/// Keyed store of compiled plans with explicit invalidation. Thread-safe:
/// the prefetch thread inserts next-epoch plans while the training thread
/// may still be reading — entries are shared_ptr so a concurrently evicted
/// plan stays alive for whoever holds it.
class PlanCache {
 public:
  using Key = std::uint64_t;

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t invalidations = 0;  // invalidate() calls that dropped entries
    std::int64_t entries = 0;        // plans resident right now
  };

  /// The cached plan for `key`, or null (counts a hit or a miss).
  std::shared_ptr<const CompiledBatch> find(Key key) const SPTX_EXCLUDES(mu_);

  void put(Key key, std::shared_ptr<const CompiledBatch> plan)
      SPTX_EXCLUDES(mu_);

  /// put(), but only while fewer than `max_entries` plans are resident.
  /// The capacity check and the insert run under one lock acquisition, so
  /// concurrent callers can never overshoot the cap the way a separate
  /// stats()-then-put() sequence could. Returns true when inserted.
  bool put_bounded(Key key, std::shared_ptr<const CompiledBatch> plan,
                   std::int64_t max_entries) SPTX_EXCLUDES(mu_);

  /// find() or compile-and-put in one step.
  std::shared_ptr<const CompiledBatch> get_or_compile(
      Key key, std::span<const Triplet> batch, const ScoringRecipe& recipe,
      index_t num_entities, index_t num_relations, bool copy_triplets)
      SPTX_EXCLUDES(mu_);

  /// Drop every entry — the shuffle / resample_negatives hook. Plans still
  /// referenced elsewhere (the executing epoch) stay alive.
  void invalidate() SPTX_EXCLUDES(mu_);

  Stats stats() const SPTX_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const CompiledBatch>> entries_
      SPTX_GUARDED_BY(mu_);
  mutable std::int64_t hits_ SPTX_GUARDED_BY(mu_) = 0;
  mutable std::int64_t misses_ SPTX_GUARDED_BY(mu_) = 0;
  std::int64_t invalidations_ SPTX_GUARDED_BY(mu_) = 0;
};

}  // namespace sptx::sparse
