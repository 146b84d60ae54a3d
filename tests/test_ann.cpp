// Tests for clustered ANN top-k serving (serve/ann_index.hpp):
//
//  * index structure — the CSR lists partition the entities exactly once,
//    and probing every list returns every entity;
//  * recall — on Zipf-skewed clustered embeddings, every model family with
//    a probe transform clears a recall@10 floor against brute force;
//  * exactness — scores on the ANN path are BIT-IDENTICAL to brute force
//    (the candidate set is approximate, the scores never are), and with
//    nprobe = k_lists the result set itself equals brute force;
//  * dispatch — kAuto below the entity threshold, kOff, and families
//    without a transform all fall back to the brute path (proved by the
//    session's topk_brute/topk_ann counters, not by timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/models/snapshot.hpp"
#include "src/serve/ann_index.hpp"
#include "src/serve/session.hpp"

namespace sptx {
namespace {

constexpr index_t kEntities = 3000;
constexpr index_t kRelations = 4;
constexpr index_t kDim = 16;

/// A frozen model whose entity rows form a Zipf-skewed Gaussian mixture:
/// cluster id = C·u² piles entities into the low-id clusters while keeping
/// every cluster populated; rows are center + small noise. Relation rows
/// stay small so translated queries land inside the clustered region.
std::shared_ptr<const models::KgeModel> clustered_model(
    const std::string& family,
    models::Dissimilarity dissim = models::Dissimilarity::kL2) {
  models::ModelSpec spec;
  spec.family = family;
  spec.config.dim = kDim;
  spec.config.rel_dim = kDim;
  spec.config.dissimilarity = dissim;
  spec.config.normalize_entities = false;
  spec.seed = 17;
  auto model = models::make_model(spec, kEntities, kRelations);

  Matrix& table = model->params()[0].mutable_value();
  Rng rng(91);
  constexpr index_t kClusters = 24;
  Matrix centers(kClusters, kDim);
  for (index_t c = 0; c < kClusters; ++c)
    for (index_t j = 0; j < kDim; ++j) centers.at(c, j) = rng.normal();
  for (index_t e = 0; e < kEntities; ++e) {
    const float u = rng.next_float();
    const auto c = std::min<index_t>(
        static_cast<index_t>(static_cast<float>(kClusters) * u * u),
        kClusters - 1);
    float* row = table.row(e);
    for (index_t j = 0; j < kDim; ++j)
      row[j] = centers.at(c, j) + 0.15f * rng.normal();
  }
  if (table.rows() >= kEntities + kRelations) {
    for (index_t r = 0; r < kRelations; ++r) {
      float* row = table.row(kEntities + r);
      for (index_t j = 0; j < kDim; ++j) row[j] = 0.1f * rng.normal();
    }
  }
  return std::shared_ptr<const models::KgeModel>(std::move(model));
}

std::shared_ptr<serve::InferenceSession> open(
    std::shared_ptr<const models::KgeModel> model, serve::AnnMode ann,
    int nprobe = 0, index_t min_entities = 0) {
  serve::SessionOptions so;
  so.ann = ann;
  so.ann_nprobe = nprobe;
  if (min_entities > 0) so.ann_min_entities = min_entities;
  return std::make_shared<serve::InferenceSession>(std::move(model), so);
}

// ---- index structure --------------------------------------------------------

TEST(AnnIndex, ListsPartitionEveryEntityExactlyOnce) {
  const auto model = clustered_model("TransE");
  const auto support = model->ann_support();
  ASSERT_TRUE(support.has_value());
  const auto index = serve::AnnIndex::build(*support->table, kEntities);
  EXPECT_GT(index->k_lists(), 1);
  EXPECT_EQ(index->num_points(), kEntities);

  // Probing every list must return each entity exactly once.
  std::vector<float> q(kDim, 0.0f);
  std::vector<index_t> out;
  const serve::AnnIndex::Probe probe{kernels::Norm::kL2, false, nullptr};
  const int probed =
      index->probe(q.data(), probe, static_cast<int>(index->k_lists()),
                   /*min_candidates=*/0, out);
  EXPECT_EQ(probed, static_cast<int>(index->k_lists()));
  ASSERT_EQ(static_cast<index_t>(out.size()), kEntities);
  std::sort(out.begin(), out.end());
  for (index_t e = 0; e < kEntities; ++e)
    ASSERT_EQ(out[static_cast<std::size_t>(e)], e);
}

TEST(AnnIndex, MinCandidatesKeepsProbingPastNprobe) {
  const auto model = clustered_model("TransE");
  const auto support = model->ann_support();
  const auto index = serve::AnnIndex::build(*support->table, kEntities);
  std::vector<float> q(kDim, 0.25f);
  std::vector<index_t> out;
  const serve::AnnIndex::Probe probe{kernels::Norm::kL2, false, nullptr};
  index->probe(q.data(), probe, /*nprobe=*/1, /*min_candidates=*/64, out);
  EXPECT_GE(static_cast<index_t>(out.size()), 64);
}

TEST(AnnIndex, ParseModeAcceptsKnownValuesRejectsOthers) {
  EXPECT_EQ(serve::parse_ann_mode("auto"), serve::AnnMode::kAuto);
  EXPECT_EQ(serve::parse_ann_mode("ON"), serve::AnnMode::kOn);
  EXPECT_EQ(serve::parse_ann_mode("off"), serve::AnnMode::kOff);
  EXPECT_THROW(serve::parse_ann_mode("fast"), Error);
}

// ---- recall + exactness across families ------------------------------------

struct FamilyCase {
  const char* family;
  models::Dissimilarity dissim;
};

class AnnFamily : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(AnnFamily, RecallClearsFloorAndScoresAreExact) {
  const auto& param = GetParam();
  const auto model = clustered_model(param.family, param.dissim);
  ASSERT_TRUE(model->ann_support().has_value())
      << param.family << " should advertise a probe transform";

  const auto ann = open(model, serve::AnnMode::kOn, /*nprobe=*/8);
  const auto brute = open(model, serve::AnnMode::kOff);
  ASSERT_NE(ann->snapshot()->ann, nullptr);

  constexpr int kTop = 10;
  constexpr std::int64_t kQueries = 24;
  double recall = 0.0;
  Rng rng(57);
  for (std::int64_t q = 0; q < kQueries; ++q) {
    const auto anchor = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(kEntities)));
    const auto rel = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(kRelations)));
    const bool tails = (q % 2) == 0;
    const auto truth = tails ? brute->top_tails(anchor, rel, kTop)
                             : brute->top_heads(rel, anchor, kTop);
    const auto approx = tails ? ann->top_tails(anchor, rel, kTop)
                              : ann->top_heads(rel, anchor, kTop);
    ASSERT_EQ(truth.size(), static_cast<std::size_t>(kTop));
    ASSERT_EQ(approx.size(), static_cast<std::size_t>(kTop));
    int hits = 0;
    for (const auto& t : truth) {
      for (const auto& a : approx) {
        if (a.entity == t.entity) {
          // THE exactness contract: an entity both paths return carries
          // bit-identical scores — the re-rank went through score().
          ASSERT_EQ(a.score, t.score)
              << param.family << " entity " << t.entity;
          ++hits;
          break;
        }
      }
    }
    recall += static_cast<double>(hits) / kTop;
  }
  recall /= static_cast<double>(kQueries);
  EXPECT_GE(recall, 0.9) << param.family << " recall@10 below floor";

  const auto stats = ann->stats();
  EXPECT_EQ(stats.topk_ann, kQueries);
  EXPECT_EQ(stats.topk_brute, 0);
  EXPECT_GT(stats.ann_candidates, 0);
  // Probing 8 of ~√N lists must scan well under the full vocabulary.
  EXPECT_LT(stats.ann_candidates / stats.topk_ann, kEntities);
}

TEST_P(AnnFamily, FullProbeEqualsBruteForceExactly) {
  const auto& param = GetParam();
  const auto model = clustered_model(param.family, param.dissim);
  const auto brute = open(model, serve::AnnMode::kOff);
  const auto ann = open(model, serve::AnnMode::kOn);
  ASSERT_NE(ann->snapshot()->ann, nullptr);
  const auto k_lists = static_cast<int>(ann->snapshot()->ann->k_lists());
  // nprobe = k_lists scans every list: the candidate set is the full
  // vocabulary, so result SET and ORDER must match brute force exactly
  // (same strict comparator, same entity-id tie-break).
  const auto full = open(model, serve::AnnMode::kOn, k_lists);

  Rng rng(58);
  for (int q = 0; q < 6; ++q) {
    const auto anchor = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(kEntities)));
    const auto rel = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(kRelations)));
    const auto expect = brute->top_tails(anchor, rel, 10);
    const auto got = full->top_tails(anchor, rel, 10);
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i].entity, got[i].entity) << param.family;
      EXPECT_EQ(expect[i].score, got[i].score) << param.family;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, AnnFamily,
    ::testing::Values(FamilyCase{"TransE", models::Dissimilarity::kL2},
                      FamilyCase{"TransE", models::Dissimilarity::kL1},
                      FamilyCase{"TransC", models::Dissimilarity::kL2},
                      FamilyCase{"TransM", models::Dissimilarity::kL2},
                      FamilyCase{"TransA", models::Dissimilarity::kL2},
                      FamilyCase{"DistMult", models::Dissimilarity::kL2},
                      FamilyCase{"ComplEx", models::Dissimilarity::kL2},
                      FamilyCase{"RotatE", models::Dissimilarity::kL2}),
    [](const ::testing::TestParamInfo<FamilyCase>& param_info) {
      return std::string(param_info.param.family) +
             (param_info.param.dissim == models::Dissimilarity::kL1 ? "L1" : "");
    });

// ---- dispatch gating --------------------------------------------------------

TEST(AnnDispatch, AutoBelowThresholdFallsBackToBrute) {
  const auto model = clustered_model("TransE");
  // Threshold above the vocabulary: kAuto must not build an index, and
  // every top-k goes brute — proved by the dispatch counters.
  const auto session = open(model, serve::AnnMode::kAuto, /*nprobe=*/0,
                            /*min_entities=*/kEntities + 1);
  EXPECT_EQ(session->snapshot()->ann, nullptr);
  session->top_tails(1, 0, 5);
  session->top_heads(0, 2, 5);
  const auto stats = session->stats();
  EXPECT_EQ(stats.topk_brute, 2);
  EXPECT_EQ(stats.topk_ann, 0);
}

TEST(AnnDispatch, AutoAboveThresholdUsesIndex) {
  const auto model = clustered_model("TransE");
  const auto session = open(model, serve::AnnMode::kAuto, /*nprobe=*/0,
                            /*min_entities=*/kEntities);
  EXPECT_NE(session->snapshot()->ann, nullptr);
  session->top_tails(1, 0, 5);
  const auto stats = session->stats();
  EXPECT_EQ(stats.topk_ann, 1);
  EXPECT_EQ(stats.topk_brute, 0);
}

TEST(AnnDispatch, OffNeverBuildsOrProbes) {
  const auto model = clustered_model("TransE");
  const auto session = open(model, serve::AnnMode::kOff);
  EXPECT_EQ(session->snapshot()->ann, nullptr);
  session->top_tails(1, 0, 5);
  EXPECT_EQ(session->stats().topk_brute, 1);
}

TEST(AnnDispatch, FamilyWithoutTransformFallsBackEvenWhenForcedOn) {
  for (const char* family : {"TorusE", "TransH"}) {
    models::ModelSpec spec;
    spec.family = family;
    spec.config.dim = kDim;
    spec.config.rel_dim = kDim;
    spec.seed = 5;
    auto model = models::make_model(spec, 200, kRelations);
    std::shared_ptr<const models::KgeModel> frozen(std::move(model));
    EXPECT_FALSE(frozen->ann_support().has_value()) << family;
    EXPECT_THROW(frozen->ann_query(true, 0, 0, nullptr), Error);
    const auto session = open(frozen, serve::AnnMode::kOn);
    EXPECT_EQ(session->snapshot()->ann, nullptr) << family;
    session->top_tails(1, 0, 5);
    EXPECT_EQ(session->stats().topk_brute, 1) << family;
    EXPECT_EQ(session->stats().topk_ann, 0) << family;
  }
}

TEST(AnnDispatch, FilterStillExcludesKnownPositivesOnAnnPath) {
  const auto model = clustered_model("TransE");
  // Find what the unfiltered ANN path ranks first, declare it a known
  // positive, and check it vanishes from the filtered session's results.
  const auto unfiltered = open(model, serve::AnnMode::kOn);
  const auto first = unfiltered->top_tails(7, 1, 1);
  ASSERT_EQ(first.size(), 1u);

  TripletStore known(kEntities, kRelations, {});
  known.add({7, 1, first[0].entity});
  serve::SessionOptions so;
  so.ann = serve::AnnMode::kOn;
  so.filter = &known;
  const auto filtered =
      std::make_shared<serve::InferenceSession>(model, so);
  for (const auto& p : filtered->top_tails(7, 1, 10))
    EXPECT_NE(p.entity, first[0].entity);
}

TEST(AnnDispatch, FilteredTopKWidensProbeUntilKSurvive) {
  // The filter holds the 570 best tails of (0, 0, ?), so the lists nearest
  // the probe are almost all known positives: the probe must keep widening
  // until k unfiltered candidates are found, not stop at nprobe lists.
  constexpr index_t kSmall = 600;
  constexpr std::size_t kKnown = 570;
  models::ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = kDim;
  spec.seed = 23;
  const std::shared_ptr<const models::KgeModel> model =
      models::make_model(spec, kSmall, kRelations);
  const auto ranked = open(model, serve::AnnMode::kOff)
                          ->top_tails(0, 0, static_cast<int>(kSmall));
  ASSERT_EQ(ranked.size(), static_cast<std::size_t>(kSmall));
  TripletStore known(kSmall, kRelations, {});
  for (std::size_t i = 0; i < kKnown; ++i)
    known.add({0, 0, ranked[i].entity});

  serve::SessionOptions so;
  so.filter = &known;
  so.ann = serve::AnnMode::kOff;
  const auto brute = std::make_shared<serve::InferenceSession>(model, so);
  for (const int k : {10, 50}) {
    const auto expect = brute->top_tails(0, 0, k);
    ASSERT_EQ(expect.size(),
              std::min<std::size_t>(static_cast<std::size_t>(k),
                                    kSmall - kKnown));
    for (const int nprobe : {1, 2, 4}) {
      so.ann = serve::AnnMode::kOn;
      so.ann_nprobe = nprobe;
      const auto ann = std::make_shared<serve::InferenceSession>(model, so);
      ASSERT_NE(ann->snapshot()->ann, nullptr);
      const auto got = ann->top_tails(0, 0, k);
      ASSERT_EQ(got.size(), expect.size()) << "k " << k << " nprobe "
                                           << nprobe;
      for (std::size_t i = 0; i < kKnown; ++i)
        for (const auto& p : got)
          ASSERT_NE(p.entity, ranked[i].entity) << "known tail returned";
      EXPECT_EQ(ann->stats().topk_ann, 1);
    }
  }
}

}  // namespace
}  // namespace sptx
