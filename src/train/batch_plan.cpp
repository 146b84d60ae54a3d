#include "src/train/batch_plan.hpp"

#include <algorithm>
#include <utility>

namespace sptx::train {

namespace {

/// Stage one batch: apply the permutation and the k-way tiling — the exact
/// pairing the §5.3 loop used to re-derive per batch per epoch. `is_pos`
/// selects the positive or the aligned corrupted side.
std::vector<Triplet> stage_batch(const EpochBatchSource& src, index_t begin,
                                 index_t count, bool is_pos) {
  const index_t m = src.data.size();
  std::vector<Triplet> staged;
  staged.reserve(static_cast<std::size_t>(src.k) *
                 static_cast<std::size_t>(count));
  for (int rep = 0; rep < src.k; ++rep) {
    for (index_t i = begin; i < begin + count; ++i) {
      const index_t p = src.positions.empty()
                            ? i
                            : src.positions[static_cast<std::size_t>(i)];
      if (is_pos) {
        staged.push_back(src.data[p]);
      } else {
        staged.push_back(
            src.negatives[static_cast<std::size_t>(rep) *
                              static_cast<std::size_t>(m) +
                          static_cast<std::size_t>(p)]);
      }
    }
  }
  return staged;
}

}  // namespace

std::int64_t BatchPlan::bytes() const {
  return (pos ? pos->bytes() : 0) + (neg ? neg->bytes() : 0);
}

index_t EpochBatchSource::num_batches() const {
  return (data.size() + batch_size - 1) / batch_size;
}

BatchPlan compile_batch_plan(const EpochBatchSource& source,
                             const sparse::ScoringRecipe& recipe,
                             index_t ordinal, sparse::PlanCache* cache) {
  SPTX_CHECK(source.data.valid() && source.batch_size > 0 && source.k >= 1,
             "bad epoch batch source");
  const index_t m = source.data.size();
  SPTX_CHECK(static_cast<index_t>(source.negatives.size()) ==
                 m * static_cast<index_t>(source.k),
             "negatives/positives size mismatch");
  SPTX_CHECK(ordinal >= 0 && ordinal < source.num_batches(),
             "batch ordinal " << ordinal << " out of range");
  const bool stage = !source.positions.empty() || source.k > 1;
  const index_t n = source.num_entities > 0 ? source.num_entities
                                            : source.data.num_entities();
  const index_t r = source.num_relations > 0 ? source.num_relations
                                             : source.data.num_relations();
  const index_t begin = ordinal * source.batch_size;
  const index_t count = std::min<index_t>(source.batch_size, m - begin);

  auto compile_side = [&](bool is_pos) {
    const sparse::PlanCache::Key key =
        (static_cast<sparse::PlanCache::Key>(ordinal) << 1) |
        (is_pos ? 0u : 1u);
    if (cache) {
      if (auto plan = cache->find(key)) return plan;
    }
    std::shared_ptr<const sparse::CompiledBatch> plan;
    if (stage) {
      plan = sparse::CompiledBatch::compile_owned(
          stage_batch(source, begin, count, is_pos), recipe, n, r);
    } else {
      const std::span<const Triplet> span =
          is_pos ? source.data.slice(begin, count)
                 : source.negatives.subspan(static_cast<std::size_t>(begin),
                                            static_cast<std::size_t>(count));
      plan = sparse::CompiledBatch::compile(span, recipe, n, r,
                                            /*copy_triplets=*/false);
    }
    if (cache) cache->put(key, plan);
    return plan;
  };
  BatchPlan bp;
  bp.pos = compile_side(/*is_pos=*/true);
  bp.neg = compile_side(/*is_pos=*/false);
  return bp;
}

std::vector<BatchPlan> compile_epoch_plans(const EpochBatchSource& source,
                                           const sparse::ScoringRecipe& recipe,
                                           sparse::PlanCache* cache) {
  SPTX_CHECK(source.data.valid() && source.batch_size > 0,
             "bad epoch batch source");
  const index_t batches = source.num_batches();
  std::vector<BatchPlan> plans;
  plans.reserve(static_cast<std::size_t>(batches));
  for (index_t b = 0; b < batches; ++b)
    plans.push_back(compile_batch_plan(source, recipe, b, cache));
  return plans;
}

}  // namespace sptx::train
