#include "src/eval/link_prediction.hpp"

#include <algorithm>
#include <map>

#include "src/eval/candidates.hpp"

namespace sptx::eval {

namespace {

struct RankAccumulator {
  double rr_sum = 0.0;
  double rank_sum = 0.0;
  std::int64_t h1 = 0, h3 = 0, h10 = 0;
  std::int64_t queries = 0;

  void add(double rank) {
    rr_sum += 1.0 / rank;
    rank_sum += rank;
    if (rank <= 1.0) ++h1;
    if (rank <= 3.0) ++h3;
    if (rank <= 10.0) ++h10;
    ++queries;
  }

  RankingMetrics finish() const {
    RankingMetrics m;
    m.queries = queries;
    if (queries > 0) {
      const auto q = static_cast<double>(queries);
      m.mrr = rr_sum / q;
      m.mean_rank = rank_sum / q;
      m.hits_at_1 = static_cast<double>(h1) / q;
      m.hits_at_3 = static_cast<double>(h3) / q;
      m.hits_at_10 = static_cast<double>(h10) / q;
    }
    return m;
  }
};

}  // namespace

void for_each_rank(
    const models::KgeModel& model, const kg::Dataset& dataset,
    const EvalConfig& config,
    const std::function<void(const Triplet&, bool, double)>& sink) {
  SPTX_CHECK(model.num_entities() == dataset.num_entities(),
             "model has " << model.num_entities() << " entities, dataset "
                          << dataset.num_entities());
  kg::KnownTriplets known;
  if (config.filtered) {
    known = kg::KnownTriplets(
        dataset.num_entities(), dataset.num_relations(),
        static_cast<std::size_t>(dataset.train.size() + dataset.valid.size() +
                                 dataset.test.size()));
    known.add(dataset.train.triplets());
    known.add(dataset.valid.triplets());
    known.add(dataset.test.triplets());
  }
  const bool higher_better = model.higher_is_better();
  const std::int64_t queries =
      config.max_queries > 0
          ? std::min(config.max_queries, dataset.test.size())
          : dataset.test.size();
  for (std::int64_t qi = 0; qi < queries; ++qi) {
    const Triplet& truth = dataset.test[qi];
    for (const bool corrupt_tail : {true, false}) {
      if (!(corrupt_tail ? config.corrupt_tails : config.corrupt_heads))
        continue;
      const CandidateQuery query{corrupt_tail,
                                 corrupt_tail ? truth.head : truth.tail,
                                 truth.relation};
      const std::vector<float> scores = score_candidates(model, query);
      sink(truth, corrupt_tail,
           filtered_rank(scores, query, corrupt_tail ? truth.tail : truth.head,
                         higher_better, known));
    }
  }
}

RankingMetrics evaluate(const models::KgeModel& model,
                        const kg::Dataset& dataset, const EvalConfig& config) {
  RankAccumulator acc;
  for_each_rank(model, dataset, config,
                [&](const Triplet&, bool, double rank) { acc.add(rank); });
  return acc.finish();
}

const char* to_string(RelationCategory category) {
  switch (category) {
    case RelationCategory::kOneToOne:
      return "1-1";
    case RelationCategory::kOneToMany:
      return "1-N";
    case RelationCategory::kManyToOne:
      return "N-1";
    case RelationCategory::kManyToMany:
      return "N-N";
  }
  return "?";
}

std::vector<RelationCategory> classify_relations(const TripletStore& train) {
  // Average tails-per-(head,relation) and heads-per-(tail,relation);
  // thresholds at 1.5 per the TransE evaluation protocol.
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> hr, tr;
  for (const Triplet& t : train.triplets()) {
    hr[{t.head, t.relation}]++;
    tr[{t.tail, t.relation}]++;
  }
  const auto r = static_cast<std::size_t>(train.num_relations());
  std::vector<double> tph_sum(r), tph_cnt(r), hpt_sum(r), hpt_cnt(r);
  for (const auto& [key, cnt] : hr) {
    tph_sum[static_cast<std::size_t>(key.second)] += cnt;
    tph_cnt[static_cast<std::size_t>(key.second)] += 1;
  }
  for (const auto& [key, cnt] : tr) {
    hpt_sum[static_cast<std::size_t>(key.second)] += cnt;
    hpt_cnt[static_cast<std::size_t>(key.second)] += 1;
  }
  std::vector<RelationCategory> out(r, RelationCategory::kOneToOne);
  for (std::size_t i = 0; i < r; ++i) {
    const double tph = tph_cnt[i] > 0 ? tph_sum[i] / tph_cnt[i] : 0.0;
    const double hpt = hpt_cnt[i] > 0 ? hpt_sum[i] / hpt_cnt[i] : 0.0;
    const bool many_tails = tph >= 1.5;
    const bool many_heads = hpt >= 1.5;
    out[i] = many_tails ? (many_heads ? RelationCategory::kManyToMany
                                      : RelationCategory::kOneToMany)
                        : (many_heads ? RelationCategory::kManyToOne
                                      : RelationCategory::kOneToOne);
  }
  return out;
}

CategoryMetrics evaluate_by_category(const models::KgeModel& model,
                                     const kg::Dataset& dataset,
                                     const EvalConfig& config) {
  const std::vector<RelationCategory> categories =
      classify_relations(dataset.train);
  RankAccumulator acc[4];
  for_each_rank(model, dataset, config,
                [&](const Triplet& truth, bool, double rank) {
                  const auto c = static_cast<std::size_t>(
                      categories[static_cast<std::size_t>(truth.relation)]);
                  acc[c].add(rank);
                });
  CategoryMetrics out;
  for (int c = 0; c < 4; ++c) out.by_category[c] = acc[c].finish();
  return out;
}

}  // namespace sptx::eval
