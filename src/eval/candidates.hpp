// The exact candidate scan and the filtered rank, shared by evaluation and
// serving.
//
// A link-prediction query fixes two slots of a triplet and asks how every
// entity fills the third: (h, r, ?) or (?, r, t). eval::evaluate ranks the
// truth of every test triplet this way, InferenceSession::rank ranks one
// truth per call, and brute-force top-k selects the best candidates from
// the same N scores. All three go through score_candidates() and, for
// ranks, filtered_rank(), so the protocol the paper reports (filtered
// MRR / Hits@k, Fig 5 / Tab 8) is written once. The exact scan is also the
// recall oracle the ANN index (serve/ann_index.hpp) is measured against.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/kg/triplet.hpp"
#include "src/models/model.hpp"

namespace sptx::eval {

/// One side of a link-prediction query: the N candidates fill the tail of
/// (anchor, relation, ?) when corrupt_tail, else the head of
/// (?, relation, anchor).
struct CandidateQuery {
  bool corrupt_tail = true;
  std::int64_t anchor = 0;
  std::int64_t relation = 0;

  Triplet candidate(std::int64_t entity) const {
    return corrupt_tail ? Triplet{anchor, relation, entity}
                        : Triplet{entity, relation, anchor};
  }
};

/// Exact set of known triplets — the "filtered" protocol's positives.
/// Membership is decided on a collision-free mixed-radix key
/// h·(R·N) + r·N + t over the vocabulary fixed at construction, so the
/// filter stays exact at any id scale the key fits (checked). An empty
/// filter excludes nothing.
class KnownTriplets {
 public:
  KnownTriplets() = default;
  /// `expected` sizes the table for that many add()ed triplets.
  KnownTriplets(std::int64_t num_entities, std::int64_t num_relations,
                std::size_t expected = 0);

  /// Insert every triplet. Ids outside the vocabulary are skipped: no
  /// candidate can ever name them.
  void add(std::span<const Triplet> triplets);

  /// `t` must lie in the vocabulary, as every candidate of a validated
  /// query does (a range check here costs the rank loop ~20%).
  bool contains(const Triplet& t) const {
    return !keys_.empty() && keys_.count(key(t)) > 0;
  }

 private:
  std::uint64_t key(const Triplet& t) const {
    const auto n = static_cast<std::uint64_t>(num_entities_);
    const auto r = static_cast<std::uint64_t>(num_relations_);
    return (static_cast<std::uint64_t>(t.head) * r +
            static_cast<std::uint64_t>(t.relation)) *
               n +
           static_cast<std::uint64_t>(t.tail);
  }

  std::int64_t num_entities_ = 0;
  std::int64_t num_relations_ = 0;
  std::unordered_set<std::uint64_t> keys_;
};

/// Model scores of all N = model.num_entities() candidates of `query`,
/// indexed by candidate entity id. The query's ids must be in range.
std::vector<float> score_candidates(const models::KgeModel& model,
                                    const CandidateQuery& query);

/// Model scores of the candidates `ids` of `query` (scores[i] for ids[i]),
/// e.g. an ANN candidate set. The triplets are staged in fixed-size stack
/// blocks and scored block by block; since score() is element-pure per
/// row, each score is bit-identical to the same entity's in the all-N
/// overload.
std::vector<float> score_candidates(const models::KgeModel& model,
                                    const CandidateQuery& query,
                                    std::span<const index_t> ids);

/// Filtered optimistic-average rank of candidate `truth` among `scores`
/// (the output of score_candidates for `query`): 1 + #strictly better +
/// #ties/2, where the truth itself and every candidate in `known` are no
/// competitors. Averaging ties avoids both the optimistic and the
/// pessimistic tie bias.
double filtered_rank(std::span<const float> scores, const CandidateQuery& query,
                     std::int64_t truth, bool higher_is_better,
                     const KnownTriplets& known);

}  // namespace sptx::eval
