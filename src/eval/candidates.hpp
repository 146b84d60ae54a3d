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
#include <vector>

#include "src/kg/known_triplets.hpp"
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
/// pessimistic tie bias. Scores are compared first: only a candidate that
/// beats or ties the truth is looked up in `known` (the lookups are counted
/// as Counter::kFilterProbes), which is what keeps a filtered rank query
/// near the cost of the scan itself.
double filtered_rank(std::span<const float> scores, const CandidateQuery& query,
                     std::int64_t truth, bool higher_is_better,
                     const kg::KnownTriplets& known);

}  // namespace sptx::eval
