// Tests for the link-prediction evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

#include "src/eval/candidates.hpp"
#include "src/eval/link_prediction.hpp"
#include "src/kg/known_triplets.hpp"
#include "src/kg/synthetic.hpp"
#include "src/profiling/counters.hpp"

namespace sptx {
namespace {

// A deterministic mock model whose score is a fixed function of the
// triplet, letting us compute expected ranks by hand.
class MockModel final : public models::KgeModel {
 public:
  MockModel(index_t n, index_t r, std::function<float(const Triplet&)> fn,
            bool higher_better = false)
      : KgeModel(n, r, {}), fn_(std::move(fn)), higher_(higher_better) {}
  std::string name() const override { return "Mock"; }
  autograd::Variable loss(std::span<const Triplet>,
                          std::span<const Triplet>) override {
    return autograd::Variable::leaf(Matrix(1, 1), false);
  }
  std::vector<float> score(std::span<const Triplet> batch) const override {
    std::vector<float> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) out[i] = fn_(batch[i]);
    return out;
  }
  bool higher_is_better() const override { return higher_; }
  std::vector<autograd::Variable> params() override { return {}; }

 private:
  std::function<float(const Triplet&)> fn_;
  bool higher_;
};

kg::Dataset tiny_dataset() {
  kg::Dataset ds;
  ds.name = "tiny";
  ds.train = TripletStore(5, 1, {{0, 0, 1}, {1, 0, 2}});
  ds.valid = TripletStore(5, 1, {});
  ds.test = TripletStore(5, 1, {{2, 0, 3}});
  return ds;
}

TEST(Eval, PerfectModelGetsHitsAtOne) {
  // Distance 0 for the truth, 10 for everything else.
  const kg::Dataset ds = tiny_dataset();
  MockModel model(5, 1, [](const Triplet& t) {
    return (t == Triplet{2, 0, 3}) ? 0.0f : 10.0f;
  });
  eval::EvalConfig cfg;
  cfg.filtered = false;
  const auto metrics = eval::evaluate(model, ds, cfg);
  EXPECT_EQ(metrics.queries, 2);  // head side + tail side
  EXPECT_DOUBLE_EQ(metrics.hits_at_1, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mrr, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mean_rank, 1.0);
}

TEST(Eval, AdversarialModelRanksLast) {
  // Truth gets the WORST distance.
  const kg::Dataset ds = tiny_dataset();
  MockModel model(5, 1, [](const Triplet& t) {
    return (t == Triplet{2, 0, 3}) ? 10.0f : 0.0f;
  });
  eval::EvalConfig cfg;
  cfg.filtered = false;
  const auto metrics = eval::evaluate(model, ds, cfg);
  EXPECT_DOUBLE_EQ(metrics.hits_at_1, 0.0);
  // 5 entities → worst rank 5 on both sides.
  EXPECT_DOUBLE_EQ(metrics.mean_rank, 5.0);
}

TEST(Eval, TiesRankAveraged) {
  // All scores identical: rank = 1 + 0 + (n−1)/2 = 3 for n = 5.
  const kg::Dataset ds = tiny_dataset();
  MockModel model(5, 1, [](const Triplet&) { return 1.0f; });
  eval::EvalConfig cfg;
  cfg.filtered = false;
  const auto metrics = eval::evaluate(model, ds, cfg);
  EXPECT_DOUBLE_EQ(metrics.mean_rank, 3.0);
}

TEST(Eval, FilteringRemovesKnownPositives) {
  // Truth (2,0,3) has distance 1. Candidate (2,0,1) scores better
  // (distance 0) but filtering removes it IF it is a known positive.
  kg::Dataset ds = tiny_dataset();
  ds.train = TripletStore(5, 1, {{2, 0, 1}});
  MockModel model(5, 1, [](const Triplet& t) {
    if (t == Triplet{2, 0, 3}) return 1.0f;
    if (t == Triplet{2, 0, 1}) return 0.0f;
    return 10.0f;
  });
  eval::EvalConfig raw;
  raw.filtered = false;
  raw.corrupt_heads = false;
  eval::EvalConfig filtered;
  filtered.filtered = true;
  filtered.corrupt_heads = false;
  EXPECT_DOUBLE_EQ(eval::evaluate(model, ds, raw).mean_rank, 2.0);
  EXPECT_DOUBLE_EQ(eval::evaluate(model, ds, filtered).mean_rank, 1.0);
}

TEST(Eval, HigherIsBetterModeInvertsRanking) {
  const kg::Dataset ds = tiny_dataset();
  // Similarity model: truth gets the HIGHEST score.
  MockModel model(
      5, 1,
      [](const Triplet& t) { return (t == Triplet{2, 0, 3}) ? 5.0f : 0.0f; },
      /*higher_better=*/true);
  eval::EvalConfig cfg;
  cfg.filtered = false;
  EXPECT_DOUBLE_EQ(eval::evaluate(model, ds, cfg).hits_at_1, 1.0);
}

TEST(Eval, SideSelectionControlsQueryCount) {
  const kg::Dataset ds = tiny_dataset();
  MockModel model(5, 1, [](const Triplet&) { return 0.0f; });
  eval::EvalConfig tails_only;
  tails_only.corrupt_heads = false;
  EXPECT_EQ(eval::evaluate(model, ds, tails_only).queries, 1);
  eval::EvalConfig both;
  EXPECT_EQ(eval::evaluate(model, ds, both).queries, 2);
}

TEST(Eval, MaxQueriesCapsWork) {
  kg::Dataset ds = tiny_dataset();
  ds.test = TripletStore(
      5, 1, {{0, 0, 1}, {1, 0, 2}, {2, 0, 3}, {3, 0, 4}});
  MockModel model(5, 1, [](const Triplet&) { return 0.0f; });
  eval::EvalConfig cfg;
  cfg.corrupt_heads = false;
  cfg.max_queries = 2;
  EXPECT_EQ(eval::evaluate(model, ds, cfg).queries, 2);
}

TEST(Eval, HitsAreMonotone) {
  Rng rng(44);
  kg::Dataset ds = kg::generate({"mono", 50, 4, 400}, rng, 0.0, 0.1);
  MockModel model(50, 4, [](const Triplet& t) {
    // Arbitrary but deterministic pseudo-scores.
    return static_cast<float>((t.head * 7 + t.tail * 13 + t.relation) % 23);
  });
  eval::EvalConfig cfg;
  const auto m = eval::evaluate(model, ds, cfg);
  EXPECT_LE(m.hits_at_1, m.hits_at_3);
  EXPECT_LE(m.hits_at_3, m.hits_at_10);
  EXPECT_GE(m.mean_rank, 1.0);
  EXPECT_LE(m.mrr, 1.0);
}

TEST(Eval, FilterStaysExactPastTwoToTheTwentyOneEntities) {
  // A packed (h<<42)^(r<<21)^t key maps candidate (0, 0, 2^21+5) and the
  // known (0, 1, 5) to the same value, silently filtering a competitor out
  // of the rank on graphs with more than 2^21 entities.
  constexpr std::int64_t kBig = (std::int64_t{1} << 21) + 8;
  constexpr std::int64_t kAliased = (std::int64_t{1} << 21) + 5;
  kg::Dataset ds;
  ds.name = "wide";
  ds.train = TripletStore(kBig, 2, {{0, 1, 5}});
  ds.valid = TripletStore(kBig, 2, {});
  ds.test = TripletStore(kBig, 2, {{0, 0, 7}});
  MockModel model(kBig, 2, [](const Triplet& t) {
    if (t == Triplet{0, 0, kAliased}) return 0.0f;  // the one better rival
    if (t == Triplet{0, 0, 7}) return 1.0f;         // the truth
    return 2.0f;
  });
  eval::EvalConfig cfg;
  cfg.corrupt_heads = false;
  EXPECT_DOUBLE_EQ(eval::evaluate(model, ds, cfg).mean_rank, 2.0);

  kg::KnownTriplets known(kBig, 2);
  known.add(ds.train.triplets());
  EXPECT_TRUE(known.contains({0, 1, 5}));
  EXPECT_FALSE(known.contains({0, 0, kAliased}));
}

TEST(Eval, KnownTripletsIsExactAndChecksItsKeyRange) {
  kg::KnownTriplets empty;
  EXPECT_FALSE(empty.contains({0, 0, 0}));

  kg::KnownTriplets known(10, 3, 4);
  // (0, 0, 10) lies outside the vocabulary; keyed anyway it would alias
  // (0, 1, 0), so add() skips it.
  const std::vector<Triplet> triplets = {
      {0, 0, 1}, {9, 2, 9}, {1, 0, 0}, {0, 0, 10}};
  known.add(triplets);
  EXPECT_TRUE(known.contains({0, 0, 1}));
  EXPECT_TRUE(known.contains({9, 2, 9}));
  EXPECT_TRUE(known.contains({1, 0, 0}));
  EXPECT_FALSE(known.contains({0, 1, 0}));
  EXPECT_FALSE(known.contains({1, 0, 1}));

  // N·R·N must fit 64 bits: 2^32 entities leave room for no relation.
  EXPECT_NO_THROW(kg::KnownTriplets(std::int64_t{1} << 31, 3));
  EXPECT_THROW(kg::KnownTriplets(std::int64_t{1} << 32, 1), Error);
}

TEST(Eval, FilteredRankSkipsTruthAndKnownAndAveragesTies) {
  // Candidates 0..5 of (2, 0, ?); truth 3 scores 1.0 (lower is better).
  const std::vector<float> scores = {0.0f, 1.0f, 0.5f, 1.0f, 1.0f, 3.0f};
  const eval::CandidateQuery query{true, 2, 0};
  kg::KnownTriplets known(6, 1);
  const std::vector<Triplet> positives = {{2, 0, 2}, {2, 0, 4}};
  known.add(positives);
  // Unfiltered: 0 and 2 better, 1 and 4 tie.
  EXPECT_DOUBLE_EQ(
      eval::filtered_rank(scores, query, 3, false, kg::KnownTriplets{}),
      1.0 + 2.0 + 1.0);
  // Filtered: 2 and 4 drop out.
  EXPECT_DOUBLE_EQ(eval::filtered_rank(scores, query, 3, false, known),
                   1.0 + 1.0 + 0.5);
  // Higher is better: only 5 beats the truth.
  EXPECT_DOUBLE_EQ(eval::filtered_rank(scores, query, 3, true, known),
                   1.0 + 1.0 + 0.5);
}

TEST(Eval, FilteredRankProbesOnlyCandidatesThatBeatOrTieTheTruth) {
  // Scores drawn from 12 levels force ties; the filter holds about 3/4 of
  // the candidates that beat or tie the truth, plus some worse ones. The
  // rank must equal a scan that probes every candidate, and only the
  // candidates that beat or tie the truth may reach the filter.
  constexpr index_t kN = 300;
  Rng rng(7);
  std::vector<float> scores(static_cast<std::size_t>(kN));
  for (float& s : scores) s = static_cast<float>(rng.next_below(12));
  for (const bool corrupt_tail : {true, false}) {
    for (const bool higher : {false, true}) {
      for (const index_t truth : {0, 17, 150, 299}) {
        const eval::CandidateQuery query{corrupt_tail, 5, 1};
        const float ts = scores[static_cast<std::size_t>(truth)];
        std::vector<char> is_known(static_cast<std::size_t>(kN), 0);
        std::vector<Triplet> positives;
        std::int64_t contenders = 0;
        for (index_t e = 0; e < kN; ++e) {
          if (e == truth) continue;
          const float s = scores[static_cast<std::size_t>(e)];
          const bool contends = (higher ? s > ts : s < ts) || s == ts;
          contenders += contends ? 1 : 0;
          if (rng.next_below(4) < (contends ? 3u : 1u)) {
            is_known[static_cast<std::size_t>(e)] = 1;
            positives.push_back(query.candidate(e));
          }
        }
        kg::KnownTriplets known(kN, 2);
        known.add(positives);

        double expected = 1.0;
        for (index_t e = 0; e < kN; ++e) {
          if (e == truth || is_known[static_cast<std::size_t>(e)]) continue;
          const float s = scores[static_cast<std::size_t>(e)];
          if (higher ? s > ts : s < ts) {
            expected += 1.0;
          } else if (s == ts) {
            expected += 0.5;
          }
        }
        profiling::CounterWindow probes(profiling::Counter::kFilterProbes);
        EXPECT_DOUBLE_EQ(
            eval::filtered_rank(scores, query, truth, higher, known), expected)
            << "tail " << corrupt_tail << " higher " << higher << " truth "
            << truth;
        EXPECT_EQ(probes.elapsed(), contenders);
      }
    }
  }

  // Every candidate that beats the truth is known: only ties count.
  const std::vector<float> few = {0.0f, 0.5f, 1.0f, 1.0f, 2.0f};
  const eval::CandidateQuery query{true, 0, 0};
  kg::KnownTriplets known(5, 1);
  const std::vector<Triplet> beaters = {{0, 0, 0}, {0, 0, 1}};
  known.add(beaters);
  EXPECT_DOUBLE_EQ(eval::filtered_rank(few, query, 2, false, known), 1.5);
}

}  // namespace
}  // namespace sptx
