#include "src/sparse/plan_cache.hpp"

#include <utility>

#include "src/profiling/counters.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx::sparse {

namespace {

/// Pre-build the backward-pass transpose when the SpMM engine would take the
/// cached-transpose path for this shape: the build then happens at plan
/// compilation (possibly in the prefetch task) instead of inside the first
/// backward of the epoch.
void maybe_warm_transpose(const Csr& a, index_t dim) {
  if (dim > 0 && spmm_backward_uses_transpose(a, dim)) a.transposed();
}

}  // namespace

void CompiledBatch::build(const ScoringRecipe& recipe, index_t num_entities,
                          index_t num_relations) {
  if (recipe.hrt) {
    hrt_ = std::make_shared<const Csr>(
        build_hrt_incidence_csr(view_, num_entities, num_relations));
    maybe_warm_transpose(*hrt_, recipe.dim);
  }
  if (recipe.ht) {
    ht_ = std::make_shared<const Csr>(
        build_ht_incidence_csr(view_, num_entities));
    maybe_warm_transpose(*ht_, recipe.dim);
  }
  if (recipe.relation_selection) {
    relation_selection_ = std::make_shared<const Csr>(
        build_relation_selection_csr(view_, num_relations));
    maybe_warm_transpose(
        *relation_selection_,
        recipe.relation_dim > 0 ? recipe.relation_dim : recipe.dim);
  }
  if (recipe.head_selection) {
    head_selection_ = std::make_shared<const Csr>(
        build_entity_selection_csr(view_, num_entities, TripletSlot::kHead));
    maybe_warm_transpose(*head_selection_, recipe.dim);
  }
  if (recipe.tail_selection) {
    tail_selection_ = std::make_shared<const Csr>(
        build_entity_selection_csr(view_, num_entities, TripletSlot::kTail));
    maybe_warm_transpose(*tail_selection_, recipe.dim);
  }
  if (recipe.relation_indices) {
    auto idx = std::make_shared<std::vector<index_t>>();
    idx->reserve(view_.size());
    for (const Triplet& t : view_) idx->push_back(t.relation);
    relation_indices_ = std::move(idx);
  }
  if (recipe.relation_groups) {
    // Counting sort by relation id: O(M + R), stable (rows of one relation
    // keep batch order, which keeps the fused backward deterministic).
    auto groups = std::make_shared<RelationGroups>();
    const index_t m = static_cast<index_t>(view_.size());
    std::vector<index_t> start(static_cast<std::size_t>(num_relations) + 1, 0);
    for (const Triplet& t : view_) ++start[static_cast<std::size_t>(t.relation) + 1];
    for (index_t r = 0; r < num_relations; ++r)
      start[static_cast<std::size_t>(r) + 1] += start[static_cast<std::size_t>(r)];
    groups->order.resize(static_cast<std::size_t>(m));
    std::vector<index_t> cursor(start.begin(), start.end() - 1);
    for (index_t i = 0; i < m; ++i) {
      const index_t r = view_[static_cast<std::size_t>(i)].relation;
      groups->order[static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++)] = i;
    }
    for (index_t r = 0; r < num_relations; ++r) {
      const index_t begin = start[static_cast<std::size_t>(r)];
      const index_t end = start[static_cast<std::size_t>(r) + 1];
      if (begin == end) continue;
      groups->rels.push_back(r);
      groups->offsets.push_back(begin);
    }
    groups->offsets.push_back(m);
    relation_groups_ = std::move(groups);
  }
  if (recipe.row_support) {
    row_support_.emplace(num_entities, num_relations);
    row_support_->add(view_);
  }
  profiling::count_event(profiling::Counter::kPlanCompiles);
}

std::shared_ptr<const CompiledBatch> CompiledBatch::compile(
    std::span<const Triplet> batch, const ScoringRecipe& recipe,
    index_t num_entities, index_t num_relations, bool copy_triplets) {
  if (copy_triplets || recipe.shared_triplets) {
    return compile_owned(std::vector<Triplet>(batch.begin(), batch.end()),
                         recipe, num_entities, num_relations);
  }
  auto plan = std::shared_ptr<CompiledBatch>(new CompiledBatch());
  plan->view_ = batch;
  plan->build(recipe, num_entities, num_relations);
  return plan;
}

std::shared_ptr<const CompiledBatch> CompiledBatch::compile_owned(
    std::vector<Triplet>&& batch, const ScoringRecipe& recipe,
    index_t num_entities, index_t num_relations) {
  auto plan = std::shared_ptr<CompiledBatch>(new CompiledBatch());
  plan->owned_ =
      std::make_shared<const std::vector<Triplet>>(std::move(batch));
  plan->view_ = *plan->owned_;
  plan->build(recipe, num_entities, num_relations);
  return plan;
}

const std::shared_ptr<const Csr>& CompiledBatch::hrt() const {
  SPTX_CHECK(hrt_ != nullptr, "plan compiled without hrt incidence");
  return hrt_;
}

const std::shared_ptr<const Csr>& CompiledBatch::ht() const {
  SPTX_CHECK(ht_ != nullptr, "plan compiled without ht incidence");
  return ht_;
}

const std::shared_ptr<const Csr>& CompiledBatch::relation_selection() const {
  SPTX_CHECK(relation_selection_ != nullptr,
             "plan compiled without relation selection");
  return relation_selection_;
}

const std::shared_ptr<const Csr>& CompiledBatch::head_selection() const {
  SPTX_CHECK(head_selection_ != nullptr,
             "plan compiled without head selection");
  return head_selection_;
}

const std::shared_ptr<const Csr>& CompiledBatch::tail_selection() const {
  SPTX_CHECK(tail_selection_ != nullptr,
             "plan compiled without tail selection");
  return tail_selection_;
}

const std::shared_ptr<const std::vector<Triplet>>&
CompiledBatch::shared_triplets() const {
  SPTX_CHECK(owned_ != nullptr, "plan compiled without owned triplets");
  return owned_;
}

const std::shared_ptr<const std::vector<index_t>>&
CompiledBatch::relation_indices() const {
  SPTX_CHECK(relation_indices_ != nullptr,
             "plan compiled without relation indices");
  return relation_indices_;
}

const std::shared_ptr<const RelationGroups>& CompiledBatch::relation_groups()
    const {
  SPTX_CHECK(relation_groups_ != nullptr,
             "plan compiled without relation groups");
  return relation_groups_;
}

const RowSupport& CompiledBatch::row_support() const {
  SPTX_CHECK(row_support_.has_value(), "plan compiled without row support");
  return *row_support_;
}

std::shared_ptr<const CompiledBatch> PlanCache::find(Key key) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  profiling::count_event(profiling::Counter::kPlanCacheHits);
  return it->second;
}

void PlanCache::put(Key key, std::shared_ptr<const CompiledBatch> plan) {
  MutexLock lock(mu_);
  entries_[key] = std::move(plan);
}

bool PlanCache::put_bounded(Key key, std::shared_ptr<const CompiledBatch> plan,
                            std::int64_t max_entries) {
  MutexLock lock(mu_);
  if (static_cast<std::int64_t>(entries_.size()) >= max_entries) return false;
  entries_[key] = std::move(plan);
  return true;
}

std::shared_ptr<const CompiledBatch> PlanCache::get_or_compile(
    Key key, std::span<const Triplet> batch, const ScoringRecipe& recipe,
    index_t num_entities, index_t num_relations, bool copy_triplets) {
  if (auto plan = find(key)) return plan;
  auto plan = CompiledBatch::compile(batch, recipe, num_entities,
                                     num_relations, copy_triplets);
  put(key, plan);
  return plan;
}

void PlanCache::invalidate() {
  MutexLock lock(mu_);
  if (!entries_.empty()) {
    ++invalidations_;
    profiling::count_event(profiling::Counter::kPlanInvalidations);
  }
  entries_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.invalidations = invalidations_;
  s.entries = static_cast<std::int64_t>(entries_.size());
  return s;
}

}  // namespace sptx::sparse
