// Tests for the inference serving layer (serve/session.hpp): correctness of
// scoring / top-k / rank queries against brute force, micro-batch
// coalescing equivalence, and — the load-bearing
// contract — identical results for concurrent vs sequential execution from
// many threads over one shared session.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/api/engine.hpp"
#include "src/common/fault.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/snapshot.hpp"
#include "src/profiling/counters.hpp"
#include "src/serve/micro_batcher.hpp"

namespace sptx {
namespace {

kg::Dataset tiny_dataset(std::uint64_t seed = 11) {
  Rng rng(seed);
  return kg::generate({"serve-test", 50, 4, 600}, rng, 0.05, 0.1);
}

/// A session over a lightly trained TransE snapshot, plus the frozen model
/// itself for brute-force comparison.
struct Fixture {
  kg::Dataset ds;
  Engine engine;
  std::shared_ptr<const models::KgeModel> frozen;

  explicit Fixture(const char* family = "TransE")
      : Fixture(tiny_dataset(), family) {}

  Fixture(kg::Dataset dataset, const char* family = "TransE")
      : ds(std::move(dataset)) {
    ModelSpec spec;
    spec.family = family;
    spec.config.dim = 16;
    spec.config.rel_dim = 8;
    spec.seed = 3;
    engine.create_model(spec, ds.num_entities(), ds.num_relations());
    train::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 128;
    engine.train(ds.train, tc);
    frozen = engine.freeze();
  }

  std::shared_ptr<serve::InferenceSession> session(
      serve::SessionOptions options = {}) {
    return engine.open_session(options);
  }
};

std::vector<Triplet> random_queries(const kg::Dataset& ds, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> out(count);
  for (auto& t : out) {
    t.head = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(ds.num_entities())));
    t.relation = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(ds.num_relations())));
    t.tail = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(ds.num_entities())));
  }
  return out;
}

TEST(Serve, ScoreMatchesModelWithAndWithoutMicroBatching) {
  Fixture fx;
  const auto queries = random_queries(fx.ds, 64, 1);
  const auto expected = fx.frozen->score(queries);

  for (bool micro : {false, true}) {
    serve::SessionOptions so;
    so.micro_batch = micro;
    auto session = fx.session(so);
    const auto got = session->score(queries);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "micro=" << micro << " i=" << i;
    EXPECT_EQ(session->score_one(queries[0]), expected[0]);
  }
}

TEST(Serve, ConcurrentQueriesMatchSequentialExecution) {
  Fixture fx;
  constexpr int kThreads = 8;
  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBatchSize = 6;

  // Per-thread query streams with brute-force expected answers.
  std::vector<std::vector<Triplet>> queries(kThreads);
  std::vector<std::vector<float>> expected(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    queries[w] = random_queries(fx.ds, kBatches * kBatchSize,
                                static_cast<std::uint64_t>(100 + w));
    expected[w] = fx.frozen->score(queries[w]);
  }

  // A linger window forces real coalescing: leaders wait for followers, so
  // most executions fuse requests from several threads.
  serve::SessionOptions so;
  so.micro_batch = true;
  so.window_us = 200;
  auto session = fx.session(so);

  std::vector<std::vector<float>> got(kThreads);
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      got[w].reserve(queries[w].size());
      for (std::size_t b = 0; b < kBatches; ++b) {
        const std::span<const Triplet> batch(
            queries[w].data() + b * kBatchSize, kBatchSize);
        const auto scores = session->score(batch);
        got[w].insert(got[w].end(), scores.begin(), scores.end());
      }
    });
  }
  for (auto& t : pool) t.join();

  for (int w = 0; w < kThreads; ++w) {
    ASSERT_EQ(got[w].size(), expected[w].size());
    for (std::size_t i = 0; i < got[w].size(); ++i)
      EXPECT_EQ(got[w][i], expected[w][i]) << "thread " << w << " i " << i;
  }

  const auto stats = session->stats();
  EXPECT_EQ(stats.batcher.requests,
            static_cast<std::int64_t>(kThreads * kBatches));
  // With 8 threads hammering through a 200us window, at least some
  // requests must have shared an execution.
  EXPECT_GT(stats.batcher.coalesced_requests, 0);
  EXPECT_LT(stats.batcher.batches_executed, stats.batcher.requests);
}

TEST(Serve, ConcurrentTopKAndRankMatchSequential) {
  Fixture fx;
  constexpr int kThreads = 6;
  auto session = fx.session();

  // Expected answers computed sequentially first.
  std::vector<std::vector<serve::Prediction>> expected_top(kThreads);
  std::vector<double> expected_rank(kThreads);
  const auto probe = random_queries(fx.ds, kThreads, 55);
  for (int w = 0; w < kThreads; ++w) {
    expected_top[w] =
        session->top_tails(probe[w].head, probe[w].relation, 5);
    expected_rank[w] = session->rank(probe[w]);
  }

  std::vector<std::vector<serve::Prediction>> got_top(kThreads);
  std::vector<double> got_rank(kThreads);
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      for (int repeat = 0; repeat < 10; ++repeat) {
        got_top[w] = session->top_tails(probe[w].head, probe[w].relation, 5);
        got_rank[w] = session->rank(probe[w]);
      }
    });
  }
  for (auto& t : pool) t.join();

  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(got_rank[w], expected_rank[w]);
    ASSERT_EQ(got_top[w].size(), expected_top[w].size());
    for (std::size_t i = 0; i < got_top[w].size(); ++i) {
      EXPECT_EQ(got_top[w][i].entity, expected_top[w][i].entity);
      EXPECT_EQ(got_top[w][i].score, expected_top[w][i].score);
    }
  }
}

TEST(Serve, TopTailsMatchesBruteForce) {
  Fixture fx;
  auto session = fx.session();
  const std::int64_t head = 3, relation = 1;
  const int k = 7;

  // Brute force: score every (head, relation, e) and sort.
  const index_t n = fx.ds.num_entities();
  std::vector<Triplet> candidates(static_cast<std::size_t>(n));
  for (index_t e = 0; e < n; ++e)
    candidates[static_cast<std::size_t>(e)] = {head, relation, e};
  const auto scores = fx.frozen->score(candidates);
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  for (index_t e = 0; e < n; ++e) order[static_cast<std::size_t>(e)] = e;
  const bool higher = fx.frozen->higher_is_better();
  std::sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
    const float sa = scores[static_cast<std::size_t>(a)];
    const float sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) return higher ? sa > sb : sa < sb;
    return a < b;
  });

  const auto top = session->top_tails(head, relation, k);
  ASSERT_EQ(top.size(), static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(top[static_cast<std::size_t>(i)].entity,
              order[static_cast<std::size_t>(i)]);
    EXPECT_EQ(top[static_cast<std::size_t>(i)].score,
              scores[static_cast<std::size_t>(
                  order[static_cast<std::size_t>(i)])]);
  }

  // k past the vocabulary clamps.
  EXPECT_EQ(session->top_tails(head, relation, 10000).size(),
            static_cast<std::size_t>(n));
}

TEST(Serve, FilterExcludesKnownPositives) {
  Fixture fx;
  serve::SessionOptions so;
  so.filter = &fx.ds.train;
  auto filtered = fx.session(so);
  auto unfiltered = fx.session();

  // Pick a training triplet; its tail must never appear in the filtered
  // top-k for (head, relation, ?) but is eligible unfiltered.
  const Triplet known = fx.ds.train[0];
  const auto n = static_cast<int>(fx.ds.num_entities());
  const auto top = filtered->top_tails(known.head, known.relation, n);
  for (const auto& p : top) {
    EXPECT_FALSE((p.entity == known.tail))
        << "filtered top-k leaked a known positive";
  }
  const auto top_unfiltered =
      unfiltered->top_tails(known.head, known.relation, n);
  EXPECT_GT(top_unfiltered.size(), top.size());

  // Rank: filtering removes competitors, so the filtered rank can only be
  // better (smaller) or equal, never worse.
  const Triplet probe = fx.ds.test[0];
  EXPECT_LE(filtered->rank(probe), unfiltered->rank(probe));
}

TEST(Serve, RankMatchesManualComputation) {
  Fixture fx;
  auto session = fx.session();
  const Triplet truth = fx.ds.test[0];

  const index_t n = fx.ds.num_entities();
  std::vector<Triplet> candidates(static_cast<std::size_t>(n));
  for (index_t e = 0; e < n; ++e)
    candidates[static_cast<std::size_t>(e)] = {truth.head, truth.relation, e};
  const auto scores = fx.frozen->score(candidates);
  const float truth_score = scores[static_cast<std::size_t>(truth.tail)];
  const bool higher = fx.frozen->higher_is_better();
  std::int64_t better = 0, ties = 0;
  for (index_t e = 0; e < n; ++e) {
    if (e == truth.tail) continue;
    const float s = scores[static_cast<std::size_t>(e)];
    if (higher ? s > truth_score : s < truth_score) {
      ++better;
    } else if (s == truth_score) {
      ++ties;
    }
  }
  const double expected =
      1.0 + static_cast<double>(better) + static_cast<double>(ties) / 2.0;
  EXPECT_EQ(session->rank(truth, true), expected);

  const auto batch_ranks = session->rank_batch(
      std::span<const Triplet>(&truth, 1), true);
  ASSERT_EQ(batch_ranks.size(), 1u);
  EXPECT_EQ(batch_ranks[0], expected);
}

/// The oracle's own triplet hash, so its positive set shares no code with
/// kg::KnownTriplets.
struct OracleTripletHash {
  std::size_t operator()(const Triplet& t) const {
    const std::hash<std::int64_t> h;
    return (h(t.head) * 1000003u ^ h(t.relation)) * 1000003u ^ h(t.tail);
  }
};
using Positives = std::unordered_set<Triplet, OracleTripletHash>;

/// The oracle's filtered top-k: score every candidate in `ids`, drop the
/// known positives, sort the rest by (score, entity id), keep k.
std::vector<serve::Prediction> oracle_top_k(const models::KgeModel& model,
                                            const eval::CandidateQuery& query,
                                            std::span<const index_t> ids,
                                            const Positives& positives,
                                            int k) {
  std::vector<Triplet> candidates;
  for (const index_t e : ids) candidates.push_back(query.candidate(e));
  const auto scores = model.score(candidates);
  std::vector<serve::Prediction> out;
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (positives.count(candidates[i]) == 0)
      out.push_back({ids[i], scores[i]});
  const bool higher = model.higher_is_better();
  std::sort(out.begin(), out.end(),
            [higher](const serve::Prediction& a, const serve::Prediction& b) {
              if (a.score != b.score)
                return higher ? a.score > b.score : a.score < b.score;
              return a.entity < b.entity;
            });
  out.resize(std::min<std::size_t>(out.size(),
                                   static_cast<std::size_t>(std::max(k, 0))));
  return out;
}

/// The candidate ids an ANN top-k scans last: probe `nprobe` lists, then
/// twice as wide until k candidates survive the filter or every list is
/// scanned.
std::vector<index_t> oracle_ann_ids(const serve::ServingSnapshot& snap,
                                    const eval::CandidateQuery& query,
                                    int nprobe, int k,
                                    const Positives& positives) {
  const models::KgeModel& model = *snap.model;
  const serve::AnnIndex& ann = *snap.ann;
  const auto support = model.ann_support();
  std::vector<float> q(static_cast<std::size_t>(support->table->cols()));
  model.ann_query(query.corrupt_tail, query.anchor, query.relation, q.data());
  const serve::AnnIndex::Probe probe{
      support->norm, support->inner_product,
      support->probe_weights != nullptr
          ? support->probe_weights->row(query.relation)
          : nullptr};
  const auto want = static_cast<std::size_t>(std::max(k, 0));
  std::vector<index_t> ids;
  for (int lists = nprobe;;) {
    const int probed =
        ann.probe(q.data(), probe, lists, static_cast<index_t>(want), ids);
    std::size_t survivors = 0;
    for (const index_t e : ids)
      survivors += positives.count(query.candidate(e)) == 0 ? 1 : 0;
    if (survivors >= want || probed >= ann.k_lists()) return ids;
    lists = 2 * probed;
  }
}

/// The oracle's filtered rank of `truth` on one side: 1 + #better +
/// #ties/2 over every candidate that is neither the truth nor known.
double oracle_rank(const models::KgeModel& model, const Triplet& truth,
                   bool tail_side, const Positives& positives) {
  const eval::CandidateQuery query{tail_side,
                                   tail_side ? truth.head : truth.tail,
                                   truth.relation};
  const index_t n = model.num_entities();
  std::vector<Triplet> candidates;
  for (index_t e = 0; e < n; ++e) candidates.push_back(query.candidate(e));
  const auto scores = model.score(candidates);
  const float truth_score = scores[static_cast<std::size_t>(
      tail_side ? truth.tail : truth.head)];
  const bool higher = model.higher_is_better();
  double rank = 1.0;
  for (index_t e = 0; e < n; ++e) {
    const auto& c = candidates[static_cast<std::size_t>(e)];
    if (c == truth || positives.count(c) > 0) continue;
    const float sc = scores[static_cast<std::size_t>(e)];
    if (higher ? sc > truth_score : sc < truth_score) {
      rank += 1.0;
    } else if (sc == truth_score) {
      rank += 0.5;
    }
  }
  return rank;
}

/// Every k of `ks`: the session's top-k of `query` equals the oracle's
/// over `ids(k)` entity for entity and bit for bit.
template <typename Ids>
void expect_top_k_matches(const serve::InferenceSession& session,
                          const models::KgeModel& model,
                          const eval::CandidateQuery& query,
                          const Positives& positives,
                          std::initializer_list<int> ks, const Ids& ids,
                          const std::string& label) {
  for (const int k : ks) {
    const std::vector<index_t> candidates = ids(k);
    const auto expect = oracle_top_k(model, query, candidates, positives, k);
    const auto got =
        query.corrupt_tail
            ? session.top_tails(query.anchor, query.relation, k)
            : session.top_heads(query.relation, query.anchor, k);
    ASSERT_EQ(got.size(), expect.size()) << label << " k " << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].entity, expect[i].entity) << label << " k " << k
                                                  << " #" << i;
      EXPECT_EQ(got[i].score, expect[i].score) << label << " k " << k
                                               << " #" << i;
    }
  }
}

std::vector<index_t> all_entities(index_t n) {
  std::vector<index_t> ids(static_cast<std::size_t>(n));
  for (index_t e = 0; e < n; ++e) ids[static_cast<std::size_t>(e)] = e;
  return ids;
}

// Differential: on every test triplet and both sides, the session's rank
// equals the evaluator's rank and an independent count, and brute-force
// top-k equals an independent scan that scores every candidate, drops the
// known positives and sorts by (score, entity id) — for k = 0, 1, 10, N
// and past N.
TEST(Serve, RanksAndTopKMatchTheEvaluatorOnEveryTestTriplet) {
  for (const char* family : {"TransE", "TransR", "DistMult"}) {
    Fixture fx(family);
    std::vector<Triplet> all;
    for (const TripletStore* split : {&fx.ds.train, &fx.ds.valid, &fx.ds.test})
      all.insert(all.end(), split->triplets().begin(), split->triplets().end());
    const TripletStore known(fx.ds.num_entities(), fx.ds.num_relations(), all);
    const Positives positives(all.begin(), all.end());
    serve::SessionOptions so;
    so.filter = &known;
    so.ann = serve::AnnMode::kOff;
    auto session = fx.session(so);
    const models::KgeModel& model = *fx.frozen;
    const index_t n = model.num_entities();
    const auto ids = all_entities(n);
    const auto n_k = static_cast<int>(n);

    std::int64_t sides = 0;
    eval::for_each_rank(
        model, fx.ds, eval::EvalConfig{},
        [&](const Triplet& truth, bool tail_side, double rank) {
          ++sides;
          EXPECT_EQ(session->rank(truth, tail_side), rank)
              << family << " side " << tail_side;
          EXPECT_EQ(rank, oracle_rank(model, truth, tail_side, positives))
              << family << " side " << tail_side;
          const eval::CandidateQuery query{
              tail_side, tail_side ? truth.head : truth.tail, truth.relation};
          expect_top_k_matches(*session, model, query, positives,
                               {0, 1, 10, n_k, n_k + 5},
                               [&](int) { return ids; }, family);
        });
    EXPECT_EQ(sides, 2 * fx.ds.test.size()) << family;
  }
}

// The filter move under stress: entity rows repeat every 150 ids, so each
// score occurs four times, and the filter holds 3 of every 4 of each test
// query's 80 best candidates on both sides. Brute force and the ANN index
// (one list, then every list) must answer exactly what the oracle does:
// filter every candidate first, then sort.
TEST(Serve, FilteredTopKAndRankMatchTheOracleUnderHeavyFiltersAndTies) {
  constexpr index_t kN = 600, kR = 4, kDistinct = 150;
  Rng rng(19);
  const kg::Dataset ds = kg::generate({"serve-ties", kN, kR, 3000}, rng, 0.05,
                                      0.02);
  models::ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = 16;
  spec.seed = 29;
  auto built = models::make_model(spec, kN, kR);
  Matrix& table = built->params()[0].mutable_value();
  for (index_t e = kDistinct; e < kN; ++e)
    std::copy(table.row(e % kDistinct), table.row(e % kDistinct) + table.cols(),
              table.row(e));
  const std::shared_ptr<const models::KgeModel> model(std::move(built));

  std::vector<Triplet> all;
  for (const TripletStore* split : {&ds.train, &ds.valid, &ds.test})
    all.insert(all.end(), split->triplets().begin(), split->triplets().end());
  const auto ids = all_entities(kN);
  for (const Triplet& truth : ds.test.triplets()) {
    for (const bool tail_side : {true, false}) {
      const eval::CandidateQuery query{
          tail_side, tail_side ? truth.head : truth.tail, truth.relation};
      const auto best = oracle_top_k(*model, query, ids, Positives{}, 80);
      for (std::size_t i = 0; i < best.size(); ++i)
        if (i % 4 != 3) all.push_back(query.candidate(best[i].entity));
    }
  }
  const TripletStore known(kN, kR, all);
  const Positives positives(all.begin(), all.end());
  kg::KnownTriplets filter(kN, kR, all.size());
  filter.add(all);

  serve::SessionOptions so;
  so.filter = &known;
  so.ann = serve::AnnMode::kOff;
  const auto brute = std::make_shared<serve::InferenceSession>(model, so);
  so.ann = serve::AnnMode::kOn;
  so.ann_nprobe = 1;
  const auto narrow = std::make_shared<serve::InferenceSession>(model, so);
  ASSERT_NE(narrow->snapshot()->ann, nullptr);
  so.ann_nprobe = static_cast<int>(narrow->snapshot()->ann->k_lists());
  const auto wide = std::make_shared<serve::InferenceSession>(model, so);

  for (const Triplet& truth : ds.test.triplets()) {
    for (const bool tail_side : {true, false}) {
      const eval::CandidateQuery query{
          tail_side, tail_side ? truth.head : truth.tail, truth.relation};
      const double expect = oracle_rank(*model, truth, tail_side, positives);
      EXPECT_EQ(brute->rank(truth, tail_side), expect);
      EXPECT_EQ(eval::filtered_rank(eval::score_candidates(*model, query),
                                    query, tail_side ? truth.tail : truth.head,
                                    model->higher_is_better(), filter),
                expect);
      const std::initializer_list<int> ks = {0, 1, 10, 100, kN, kN + 5};
      expect_top_k_matches(*brute, *model, query, positives, ks,
                           [&](int) { return ids; }, "brute");
      expect_top_k_matches(*wide, *model, query, positives, ks,
                           [&](int) { return ids; }, "ann all lists");
      expect_top_k_matches(
          *narrow, *model, query, positives, ks,
          [&](int k) {
            return oracle_ann_ids(*narrow->snapshot(), query, 1, k, positives);
          },
          "ann one list");
    }
  }
}

TEST(Serve, FilteredBruteTopKProbesOnlyCandidatesThatEnterTheHeap) {
  // A 2000-entity graph: a top-10 that probed every candidate would count
  // 2000 filter probes per query; the heap's entrants are a few dozen.
  Rng rng(23);
  Fixture fx(kg::generate({"serve-probes", 2000, 4, 6000}, rng, 0.05, 0.1));
  serve::SessionOptions so;
  so.filter = &fx.ds.train;
  so.ann = serve::AnnMode::kOff;
  auto session = fx.session(so);
  const index_t n = fx.ds.num_entities();
  for (const Triplet& q : random_queries(fx.ds, 20, 71)) {
    profiling::CounterWindow probes(profiling::Counter::kFilterProbes);
    ASSERT_EQ(session->top_tails(q.head, q.relation, 10).size(), 10u);
    EXPECT_GE(probes.elapsed(), 10);
    EXPECT_LT(probes.elapsed(), n / 4);
  }
  EXPECT_NE(fx.engine.health_json().find("\"filter_probes\""),
            std::string::npos);
}

TEST(Serve, RankBatchAnswersFromOneSnapshotWhilePublishesFlip) {
  // Two snapshots of one vocabulary with different weights; one thread
  // flips between them while another ranks batches. Every batch must equal
  // one version's ranks in full, never a mix.
  Fixture fx;
  auto session = fx.session();
  const auto version = [&](std::uint64_t seed) {
    models::ModelSpec spec;
    spec.family = "TransE";
    spec.config.dim = 16;
    spec.seed = seed;
    return serve::make_serving_snapshot(
        models::make_model(spec, fx.ds.num_entities(), fx.ds.num_relations()),
        serve::AnnMode::kOff, 0, models::next_snapshot_version());
  };
  const auto snap_a = version(41);
  const auto snap_b = version(42);

  std::vector<Triplet> truths(fx.ds.test.triplets().begin(),
                              fx.ds.test.triplets().end());
  session->install(snap_a);
  const auto ranks_a = session->rank_batch(truths);
  session->install(snap_b);
  const auto ranks_b = session->rank_batch(truths);
  ASSERT_NE(ranks_a, ranks_b) << "the two versions must rank differently";

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i)
      session->install(i % 2 == 0 ? snap_a : snap_b);
  });
  int mixed = 0;
  for (int round = 0; round < 200; ++round) {
    const auto got = session->rank_batch(truths);
    if (got != ranks_a && got != ranks_b) ++mixed;
  }
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  EXPECT_EQ(mixed, 0) << "batches answered from two snapshot versions";
}

TEST(Serve, SemiringFamilyServesHigherIsBetter) {
  Fixture fx("DistMult");
  ASSERT_TRUE(fx.frozen->higher_is_better());
  auto session = fx.session();
  const auto top = session->top_tails(1, 0, 3);
  ASSERT_EQ(top.size(), 3u);
  // Predictions are ordered best-first: descending for similarity models.
  EXPECT_GE(top[0].score, top[1].score);
  EXPECT_GE(top[1].score, top[2].score);
}

TEST(Serve, OutOfRangeIdsAreRejectedNotDereferenced) {
  Fixture fx;
  auto session = fx.session();
  const auto n = fx.ds.num_entities();
  EXPECT_THROW(session->score_one({n, 0, 0}), Error);
  EXPECT_THROW(session->score_one({0, fx.ds.num_relations(), 0}), Error);
  EXPECT_THROW(session->score_one({0, 0, -1}), Error);
  EXPECT_THROW(session->rank({0, 0, n}), Error);        // truth-side entity
  EXPECT_THROW(session->rank({-1, 0, 0}, false), Error);
  EXPECT_THROW(session->top_tails(n, 0, 3), Error);
  EXPECT_THROW(session->top_heads(-1, 0, 3), Error);
  // In-range queries still work after the rejections.
  EXPECT_NO_THROW(session->score_one({0, 0, 0}));
}

TEST(MicroBatcherUnit, OversizedRequestStillExecutes) {
  const auto echo = [](std::span<const Triplet> batch) {
    std::vector<float> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      out[i] = static_cast<float>(batch[i].head);
    return out;
  };
  serve::MicroBatcher batcher(echo, /*max_batch=*/4,
                              std::chrono::microseconds(0));
  std::vector<Triplet> big(10);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i].head = static_cast<std::int64_t>(i);
  std::vector<float> out(big.size());
  batcher.execute(big, out.data());
  for (std::size_t i = 0; i < big.size(); ++i)
    EXPECT_EQ(out[i], static_cast<float>(i));
  EXPECT_EQ(batcher.stats().batches_executed, 1);
  batcher.execute({}, nullptr);  // empty request is a no-op
  EXPECT_EQ(batcher.stats().requests, 1);
}

// ---------------------------------------------------------------------------
// Graceful degradation: bounded queue, per-request deadlines, typed
// rejections. The contract under overload: nobody hangs, every request gets
// either its exact scores or a typed rejection, and shedding never changes
// the answers of the requests that are served.
// ---------------------------------------------------------------------------

TEST(MicroBatcherDegrade, PastDeadlineRejectedOnArrival) {
  std::atomic<int> calls{0};
  const auto scorer = [&](std::span<const Triplet> batch) {
    ++calls;
    return std::vector<float>(batch.size(), 0.0f);
  };
  serve::MicroBatcher batcher(scorer, 4, std::chrono::microseconds(0));
  Triplet t{1, 0, 2};
  float out = -1.0f;
  const auto expired =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(batcher.try_execute({&t, 1}, &out, expired),
            serve::RejectReason::kDeadline);
  EXPECT_EQ(calls.load(), 0);  // shed before any work
  EXPECT_EQ(batcher.stats().rejected_deadline, 1);
  // The same request without a deadline executes normally.
  EXPECT_EQ(batcher.try_execute({&t, 1}, &out),
            serve::RejectReason::kNone);
  EXPECT_EQ(calls.load(), 1);
}

/// Scorer that blocks until released — lets a test pin the single
/// concurrency slot and observe the queue deterministically.
struct BlockingScorer {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<int> started{0};
  std::atomic<int> scored_triplets{0};

  serve::MicroBatcher::ScoreFn fn() {
    return [this](std::span<const Triplet> batch) {
      ++started;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return released; });
      }
      scored_triplets += static_cast<int>(batch.size());
      std::vector<float> out(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i)
        out[i] = static_cast<float>(batch[i].head) * 0.5f;
      return out;
    };
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
    cv.notify_all();
  }
  void wait_started() {
    while (started.load() == 0) std::this_thread::yield();
  }
};

TEST(MicroBatcherDegrade, BoundedQueueBouncesExcessLoadTyped) {
  BlockingScorer scorer;
  // One execution slot, queue bounded at 2 triplets.
  serve::MicroBatcher batcher(scorer.fn(), /*max_batch=*/1,
                              std::chrono::microseconds(0),
                              /*queue_limit=*/2, /*max_concurrent=*/1);
  Triplet a{2, 0, 0}, b{4, 0, 0}, c{6, 0, 0}, d{8, 0, 0};
  float oa = -1, ob = -1, oc = -1, od = -1;
  // Occupy the slot, then fill the queue behind it.
  std::thread ta([&] {
    EXPECT_EQ(batcher.try_execute({&a, 1}, &oa), serve::RejectReason::kNone);
  });
  scorer.wait_started();
  std::thread tb([&] {
    EXPECT_EQ(batcher.try_execute({&b, 1}, &ob), serve::RejectReason::kNone);
  });
  std::thread tc([&] {
    EXPECT_EQ(batcher.try_execute({&c, 1}, &oc), serve::RejectReason::kNone);
  });
  // b and c are queued (the slot is pinned); give them time to enqueue.
  while (batcher.stats().requests < 3) std::this_thread::yield();
  // The queue holds 2 triplets — the bound; the next arrival bounces, and
  // the typed path throws nothing while execute() raises the typed Error.
  EXPECT_EQ(batcher.try_execute({&d, 1}, &od),
            serve::RejectReason::kQueueFull);
  try {
    batcher.execute({&d, 1}, &od);
    FAIL() << "bounded queue should reject";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kQueueFull);
  }
  scorer.release();
  ta.join();
  tb.join();
  tc.join();
  // Everyone admitted was served exactly; the bounced request never ran.
  EXPECT_EQ(oa, 1.0f);
  EXPECT_EQ(ob, 2.0f);
  EXPECT_EQ(oc, 3.0f);
  EXPECT_EQ(od, -1.0f);
  EXPECT_EQ(batcher.stats().rejected_queue_full, 2);
  EXPECT_EQ(scorer.scored_triplets.load(), 3);
}

TEST(MicroBatcherDegrade, ExpiredWhileQueuedShedsWithoutExecuting) {
  BlockingScorer scorer;
  serve::MicroBatcher batcher(scorer.fn(), /*max_batch=*/4,
                              std::chrono::microseconds(0),
                              /*queue_limit=*/0, /*max_concurrent=*/1);
  Triplet a{2, 0, 0}, b{100, 0, 0};
  float oa = -1, ob = -1;
  std::thread ta([&] {
    EXPECT_EQ(batcher.try_execute({&a, 1}, &oa), serve::RejectReason::kNone);
  });
  scorer.wait_started();
  // The slot is pinned; a queued request whose deadline passes must shed
  // itself and return — no hang, no execution.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_EQ(batcher.try_execute({&b, 1}, &ob, deadline),
            serve::RejectReason::kDeadline);
  EXPECT_EQ(ob, -1.0f);
  scorer.release();
  ta.join();
  EXPECT_EQ(oa, 1.0f);
  EXPECT_EQ(scorer.scored_triplets.load(), 1);  // b never reached the scorer
  EXPECT_GE(batcher.stats().rejected_deadline, 1);
}

/// Minimal model whose score() costs real wall time — the "service
/// capacity" the oversubscription test saturates.
class SlowModel : public models::KgeModel {
 public:
  SlowModel(index_t entities, index_t relations)
      : KgeModel(entities, relations, models::ModelConfig{}) {}
  std::string name() const override { return "SlowModel"; }
  autograd::Variable loss(std::span<const Triplet>,
                          std::span<const Triplet>) override {
    throw Error("SlowModel is serve-only");
  }
  std::vector<float> score(std::span<const Triplet> batch) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::vector<float> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      out[i] = static_cast<float>(batch[i].head * 3 - batch[i].tail);
    return out;
  }
  std::vector<autograd::Variable> params() override { return {}; }
};

TEST(Serve, OversubscribedSessionShedsTypedAndServesExactly) {
  // Service capacity: one slot, 1 ms per execution, up to 4 triplets per
  // batch. Load: 8 threads issuing back-to-back 2-triplet requests — 4x
  // more outstanding triplets than the queue bound admits on a burst.
  auto model = std::make_shared<SlowModel>(100, 4);
  serve::SessionOptions so;
  so.micro_batch = true;
  so.max_batch = 4;
  so.queue_limit = 8;
  so.max_concurrency = 1;
  serve::InferenceSession session(model, so);

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  constexpr std::int64_t kDeadlineUs = 300'000;  // generous: 300 ms
  std::atomic<std::int64_t> accepted{0}, queue_full{0}, deadline{0};
  std::atomic<bool> mismatch{false};
  std::vector<double> latencies[kThreads];
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) {
        const Triplet q[2] = {{w, 0, i % 50}, {i % 100, 1, w}};
        const auto t0 = std::chrono::steady_clock::now();
        const auto result = session.try_score({q, 2}, kDeadlineUs);
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        switch (result.rejected) {
          case serve::RejectReason::kNone: {
            ++accepted;
            latencies[w].push_back(ms);
            const auto expect = model->score({q, 2});
            if (result.scores != expect) mismatch = true;
            break;
          }
          case serve::RejectReason::kQueueFull:
            ++queue_full;
            break;
          case serve::RejectReason::kDeadline:
            ++deadline;
            break;
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  // Typed accounting is complete: every request was served or shed.
  EXPECT_EQ(accepted + queue_full + deadline,
            static_cast<std::int64_t>(kThreads) * kRounds);
  // The burst exceeds slot + queue capacity, so the bounded queue sheds.
  EXPECT_GE(queue_full.load(), 1);
  // Somebody was served, and every served answer was bit-exact.
  EXPECT_GE(accepted.load(), 1);
  EXPECT_FALSE(mismatch.load());
  // Accepted requests met their deadline at p99.
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    const double p99 = all[static_cast<std::size_t>(
        0.99 * static_cast<double>(all.size() - 1))];
    EXPECT_LT(p99, static_cast<double>(kDeadlineUs) / 1000.0);
  }

  const auto stats = session.stats();
  EXPECT_EQ(stats.rejected, queue_full + deadline);
  EXPECT_EQ(stats.batcher.rejected_queue_full, queue_full);
  EXPECT_EQ(stats.batcher.rejected_deadline, deadline);
}

TEST(Serve, TryScoreMatchesScoreWhenUnloaded) {
  Fixture fx;
  auto session = fx.session();
  const auto queries = random_queries(fx.ds, 32, 9);
  const auto direct = session->score(queries);
  const auto result = session->try_score(queries, /*deadline_us=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.scores, direct);
  // Out-of-range ids still throw (validation is not "degradation").
  const Triplet bad{fx.ds.num_entities(), 0, 0};
  EXPECT_THROW(session->try_score({&bad, 1}, 0), Error);
}

TEST(Serve, EngineHealthSurfacesDegradation) {
  Fixture fx;
  auto session = fx.session();
  session->score_one({1, 0, 2});
  std::string health = fx.engine.health_json();
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"sessions_open\": 1"), std::string::npos);
  EXPECT_NE(health.find("\"loaded\": true"), std::string::npos);

  // Injected serve_queue faults shed typed rejections; health flips.
  fault::install("serve_queue:fail@1");
  const Triplet probe{1, 0, 2};
  const auto rejected = session->try_score({&probe, 1}, 0);
  EXPECT_EQ(rejected.rejected, serve::RejectReason::kQueueFull);
  health = fx.engine.health_json();
  EXPECT_NE(health.find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(health.find("\"rejected\": 1"), std::string::npos);
  fault::clear();
}

}  // namespace
}  // namespace sptx
