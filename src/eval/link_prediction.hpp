// Link-prediction evaluation: Hits@K, MRR, mean rank (raw and filtered).
//
// For every test triplet the evaluator replaces the tail (and optionally
// the head) with every entity, scores all candidates with the model's fast
// scoring path, and ranks the true entity. "Filtered" ranking (the Hits@10
// the paper reports, Fig 5 / Tab 8) ignores candidates that are known
// positives in train/valid/test. Ties rank optimistically-average
// (candidates with strictly better score count, equal scores count half),
// which avoids both the optimistic and pessimistic tie biases. The scan,
// filter and rank live in eval/candidates.hpp, shared with serving.
#pragma once

#include <functional>

#include "src/kg/dataset.hpp"
#include "src/models/model.hpp"

namespace sptx::eval {

struct RankingMetrics {
  double mrr = 0.0;
  double mean_rank = 0.0;
  double hits_at_1 = 0.0;
  double hits_at_3 = 0.0;
  double hits_at_10 = 0.0;
  std::int64_t queries = 0;
};

struct EvalConfig {
  bool filtered = true;
  bool corrupt_heads = true;  // evaluate both sides (standard protocol)
  bool corrupt_tails = true;
  /// Cap on evaluated test triplets (0 = all); keeps scaled runs fast.
  std::int64_t max_queries = 0;
};

/// Evaluate `model` on `dataset.test` against all entities.
RankingMetrics evaluate(const models::KgeModel& model,
                        const kg::Dataset& dataset, const EvalConfig& config);

/// The per-query walk under evaluate(): hands `sink` the rank of every
/// evaluated (test triplet, side) pair, tail side first.
void for_each_rank(
    const models::KgeModel& model, const kg::Dataset& dataset,
    const EvalConfig& config,
    const std::function<void(const Triplet&, bool /*tail_side*/,
                             double /*rank*/)>& sink);

/// Mapping-property class of a relation (the TransE/TransH literature's
/// 1-1 / 1-N / N-1 / N-N split, thresholding average tails-per-head and
/// heads-per-tail at 1.5).
enum class RelationCategory { kOneToOne, kOneToMany, kManyToOne, kManyToMany };

const char* to_string(RelationCategory category);

/// Classify every relation from the training split's statistics.
std::vector<RelationCategory> classify_relations(const TripletStore& train);

/// Per-category metrics, indexed by RelationCategory (4 entries). Useful to
/// confirm the known model behaviours (e.g. plain TransE degrading on 1-N
/// tails, the failure TransH was designed to fix).
struct CategoryMetrics {
  RankingMetrics by_category[4];
};

CategoryMetrics evaluate_by_category(const models::KgeModel& model,
                                     const kg::Dataset& dataset,
                                     const EvalConfig& config);

}  // namespace sptx::eval
