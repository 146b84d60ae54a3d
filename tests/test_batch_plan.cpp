// BatchPlan compilation pipeline tests.
//
// The plan/execute split must be invisible to the math. Two differentials
// pin it down: every compiled plan stages exactly the (positive, negative)
// pairs the §5.3 loop pairs directly — permutation, k-way tiling and
// resampled negatives included — and the scoring core over a compiled plan
// matches the span-based distance() bit-for-bit for every model family.
// The profiling counters prove the structural claims — zero incidence
// rebuilds after the first epoch of an invariant schedule and one full
// build per epoch under shuffle / negative resampling — and the plan byte
// count bounds what the one-batch lookahead keeps alive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/model.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/plan_cache.hpp"
#include "src/tensor/matrix.hpp"
#include "src/train/batch_plan.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

// All six sparse families: transe, transh, transr, toruse, the semiring
// extensions, and the extra translational set.
const std::vector<std::string>& all_models() {
  static const std::vector<std::string> names = {
      "TransE", "TransH", "TransR",  "TorusE",  "TransD", "TransA",
      "TransC", "TransM", "DistMult", "ComplEx", "RotatE",
  };
  return names;
}

kg::Dataset small_dataset(std::uint64_t seed = 77) {
  Rng rng(seed);
  return kg::generate({"plan-toy", 60, 5, 500}, rng, 0.1, 0.0);
}

models::ModelConfig cfg16() {
  models::ModelConfig cfg;
  cfg.dim = 16;
  cfg.rel_dim = 8;
  return cfg;
}

train::TrainConfig base_config() {
  train::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 128;
  tc.lr = 0.05f;
  tc.seed = 11;
  return tc;
}

train::TrainResult run(const std::string& name, const kg::Dataset& ds,
                       const train::TrainConfig& tc) {
  Rng rng(5);
  auto model = models::make_sparse_model(name, ds.num_entities(),
                                         ds.num_relations(), cfg16(), rng);
  return train::train(*model, ds.train, tc);
}

void expect_identical_losses(const train::TrainResult& a,
                             const train::TrainResult& b,
                             const std::string& what) {
  ASSERT_EQ(a.epoch_loss.size(), b.epoch_loss.size()) << what;
  for (std::size_t i = 0; i < a.epoch_loss.size(); ++i) {
    EXPECT_EQ(a.epoch_loss[i], b.epoch_loss[i])
        << what << " diverged at epoch " << i;
  }
}

// ---- Bit-exactness of the compiled pipeline ------------------------------

TEST(BatchPlan, EpochPlansStageTheDirectPairing) {
  const kg::Dataset ds = small_dataset();
  const TripletStore& data = ds.train;
  const index_t m = data.size();
  const int k = 3;
  const index_t batch_size = 128;  // does not divide m: a short last batch
  ASSERT_NE(m % batch_size, 0);

  // The RNG-driven inputs of a shuffled, resampled epoch: a permuted pair
  // order and a fresh draw of k negatives per positive.
  Rng rng(13);
  kg::NegativeSampler sampler(data, kg::CorruptionScheme::kUniform);
  const std::vector<Triplet> negatives =
      sampler.pregenerate_k(data.triplets(), k, rng);
  std::vector<index_t> positions(static_cast<std::size_t>(m));
  for (std::size_t i = 0; i < positions.size(); ++i)
    positions[i] = static_cast<index_t>(i);
  for (std::size_t i = positions.size(); i > 1; --i)
    std::swap(positions[i - 1], positions[rng.next_below(i)]);

  train::EpochBatchSource src;
  src.data = kg::TripletSource(data);
  src.negatives = negatives;
  src.positions = positions;
  src.k = k;
  src.batch_size = batch_size;
  sparse::ScoringRecipe recipe;
  recipe.hrt = true;
  const std::vector<train::BatchPlan> plans =
      train::compile_epoch_plans(src, recipe, /*cache=*/nullptr);

  ASSERT_EQ(static_cast<index_t>(plans.size()),
            (m + batch_size - 1) / batch_size);
  for (std::size_t b = 0; b < plans.size(); ++b) {
    const index_t begin = static_cast<index_t>(b) * batch_size;
    const index_t count = std::min<index_t>(batch_size, m - begin);
    const auto pos = plans[b].pos->triplets();
    const auto neg = plans[b].neg->triplets();
    ASSERT_EQ(static_cast<index_t>(pos.size()), k * count) << "batch " << b;
    ASSERT_EQ(neg.size(), pos.size()) << "batch " << b;
    // Repetition-major tiling: pair rep·count + j is positive
    // positions[begin+j] against its rep-th corruption.
    std::size_t pair = 0;
    for (int rep = 0; rep < k; ++rep) {
      for (index_t i = begin; i < begin + count; ++i, ++pair) {
        const index_t p = positions[static_cast<std::size_t>(i)];
        EXPECT_EQ(pos[pair], data[p]) << "batch " << b << " pair " << pair;
        EXPECT_EQ(neg[pair], negatives[static_cast<std::size_t>(rep) *
                                           static_cast<std::size_t>(m) +
                                       static_cast<std::size_t>(p)])
            << "batch " << b << " pair " << pair;
      }
    }
  }
}

// Every batch compiles one batch ahead as a kPrefetch pool task. At pool
// width 1 the task runs inline inside the join; at widths 2 and 4 a worker
// compiles batch b+1 while batch b executes, next to the batch's own
// parallel regions. A shuffled, resampled k = 2 schedule must train the
// same losses and parameters bit for bit at every width, because all RNG
// stays on the driving thread.
TEST(BatchPlan, PrefetchTaskBitExactAcrossPoolWidths) {
  const kg::Dataset ds = small_dataset();
  runtime::TaskPool& pool = runtime::TaskPool::instance();
  const int width_before = pool.threads();
  for (const std::string& name :
       {std::string("TransE"), std::string("TransR"), std::string("ComplEx")}) {
    for (const int k : {1, 2}) {
      train::TrainConfig tc = base_config();
      tc.shuffle = true;
      tc.resample_negatives = true;
      tc.negatives_per_positive = k;
      std::unique_ptr<models::KgeModel> reference;
      train::TrainResult reference_result;
      for (const int width : {1, 2, 4}) {
        pool.resize(width);
        Rng rng(5);
        auto model = models::make_sparse_model(
            name, ds.num_entities(), ds.num_relations(), cfg16(), rng);
        const train::TrainResult result = train::train(*model, ds.train, tc);
        const std::string what = name + " k=" + std::to_string(k) +
                                 " pool width " + std::to_string(width);
        if (!reference) {
          reference = std::move(model);
          reference_result = result;
          continue;
        }
        expect_identical_losses(reference_result, result, what);
        const auto want = reference->params();
        const auto got = model->params();
        ASSERT_EQ(want.size(), got.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i)
          EXPECT_EQ(max_abs_diff(want[i].value(), got[i].value()), 0.0f)
              << what << " param " << i;
      }
    }
  }
  pool.resize(width_before);
}

// The lookahead keeps only the executing and the next batch pair alive.
// Bound the run's plan high-water mark by two of the largest pairs it
// compiles: the test redraws the run's per-epoch negatives (the trainer's
// RNG protocol — one draw at construction, then one per later epoch) and
// compiles every epoch's pairs to find that largest pair.
TEST(BatchPlan, PeakPlanBytesStaysWithinTwoBatchPairs) {
  const kg::Dataset ds = small_dataset();
  train::TrainConfig tc = base_config();
  tc.resample_negatives = true;
  Rng init(5);
  auto model = models::make_sparse_model("TransE", ds.num_entities(),
                                         ds.num_relations(), cfg16(), init);
  auto* scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
  ASSERT_NE(scoring, nullptr);
  sparse::ScoringRecipe recipe = scoring->recipe();
  recipe.row_support = true;

  Rng rng(tc.seed);
  kg::NegativeSampler sampler(ds.train, tc.corruption);
  std::int64_t largest_pair = 0;
  index_t batches = 0;
  for (int epoch = 0; epoch < tc.epochs; ++epoch) {
    const std::vector<Triplet> negatives =
        sampler.pregenerate_k(ds.train.triplets(), 1, rng);
    train::EpochBatchSource src;
    src.data = kg::TripletSource(ds.train);
    src.negatives = negatives;
    src.batch_size = tc.batch_size;
    const auto plans = train::compile_epoch_plans(src, recipe, nullptr);
    batches = static_cast<index_t>(plans.size());
    for (const train::BatchPlan& bp : plans)
      largest_pair = std::max(largest_pair, bp.bytes());
  }
  ASSERT_GE(batches, 3);  // so two pairs is less than an epoch's worth
  ASSERT_GT(largest_pair, 0);

  const train::TrainResult result = train::train(*model, ds.train, tc);
  EXPECT_GT(result.peak_plan_bytes, largest_pair);
  EXPECT_LE(result.peak_plan_bytes, 2 * largest_pair);
  EXPECT_EQ(result.plan_stats.entries, 0);  // nothing parked in the cache
}

// A lookahead compile that throws — here on a relation id the model has no
// row for, present only from the second batch on — must surface from
// train() as sptx::Error at every pool width, without hanging and without
// leaving its task behind in the pool.
TEST(BatchPlan, LookaheadCompileErrorSurfacesFromTrain) {
  const kg::Dataset ds = small_dataset();
  const train::TrainConfig base = base_config();
  std::vector<Triplet> triplets(ds.train.triplets().begin(),
                                ds.train.triplets().end());
  ASSERT_GT(static_cast<index_t>(triplets.size()), 2 * base.batch_size);
  const index_t oov_relation = ds.num_relations();
  triplets[static_cast<std::size_t>(base.batch_size) + 3].relation =
      oov_relation;
  const TripletStore store(ds.num_entities(), ds.num_relations() + 1,
                           std::move(triplets));

  runtime::TaskPool& pool = runtime::TaskPool::instance();
  const int width_before = pool.threads();
  const auto prefetch = static_cast<int>(runtime::TaskClass::kPrefetch);
  for (const bool resample : {false, true}) {
    for (const int width : {1, 2, 4}) {
      pool.resize(width);
      train::TrainConfig tc = base;
      tc.resample_negatives = resample;
      Rng rng(5);
      auto model = models::make_sparse_model(
          "TransE", ds.num_entities(), ds.num_relations(), cfg16(), rng);
      EXPECT_THROW(train::train(*model, store, tc), Error)
          << "resample " << resample << " width " << width;
      const auto stats = pool.stats();
      EXPECT_EQ(stats.per_class[prefetch].submitted,
                stats.per_class[prefetch].executed)
          << "resample " << resample << " width " << width;
    }
  }
  pool.resize(width_before);
}

// ---- Cache behaviour: the structural claims ------------------------------

TEST(BatchPlan, InvariantScheduleRebuildsNothingAfterFirstEpoch) {
  const kg::Dataset ds = small_dataset();
  for (const std::string& name :
       {std::string("TransE"), std::string("TransH"), std::string("TransD")}) {
    train::TrainConfig one = base_config();
    one.epochs = 1;
    train::TrainConfig many = one;
    many.epochs = 5;
    const auto r1 = run(name, ds, one);
    const auto r5 = run(name, ds, many);
    EXPECT_GT(r1.incidence_builds, 0) << name;
    // Epochs >= 2 perform ZERO incidence rebuilds: five epochs build
    // exactly what one epoch builds.
    EXPECT_EQ(r5.incidence_builds, r1.incidence_builds) << name;
    // Every batch after epoch 0 is a cache hit (pos + neg per batch).
    const std::int64_t batches = r1.plan_stats.misses / 2;
    EXPECT_GT(batches, 1) << name;
    EXPECT_EQ(r5.plan_stats.misses, 2 * batches) << name;
    EXPECT_EQ(r5.plan_stats.hits, 2 * batches * 4) << name;
    EXPECT_EQ(r5.plan_stats.invalidations, 0) << name;
  }
}

// A shuffled or resampled schedule never revisits a plan: it bypasses the
// cache and builds every epoch's incidence afresh.
TEST(BatchPlan, ShuffleRecompilesEveryEpoch) {
  const kg::Dataset ds = small_dataset();
  train::TrainConfig tc = base_config();
  tc.epochs = 3;
  tc.shuffle = true;
  const auto r = run("TransE", ds, tc);
  EXPECT_EQ(r.plan_stats.hits, 0);
  EXPECT_EQ(r.plan_stats.entries, 0);
  // Every epoch rebuilds its incidence: builds scale with epoch count.
  train::TrainConfig one = tc;
  one.epochs = 1;
  const auto r1 = run("TransE", ds, one);
  EXPECT_GT(r1.incidence_builds, 0);
  EXPECT_EQ(r.incidence_builds, 3 * r1.incidence_builds);
}

TEST(BatchPlan, ResampleRecompilesEveryEpoch) {
  const kg::Dataset ds = small_dataset();
  train::TrainConfig tc = base_config();
  tc.epochs = 3;
  tc.resample_negatives = true;
  const auto r = run("TransE", ds, tc);
  EXPECT_EQ(r.plan_stats.hits, 0);
  EXPECT_EQ(r.plan_stats.entries, 0);
  train::TrainConfig one = tc;
  one.epochs = 1;
  const auto r1 = run("TransE", ds, one);
  EXPECT_GT(r1.incidence_builds, 0);
  EXPECT_EQ(r.incidence_builds, 3 * r1.incidence_builds);
}

// ---- CompiledBatch against the direct builders ---------------------------

TEST(BatchPlan, CompiledBatchMatchesDirectBuilders) {
  Rng rng(3);
  const index_t n = 40, r = 6;
  std::vector<Triplet> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back({static_cast<std::int64_t>(rng.next_below(n)),
                     static_cast<std::int64_t>(rng.next_below(r)),
                     static_cast<std::int64_t>(rng.next_below(n))});
  }
  sparse::ScoringRecipe recipe;
  recipe.hrt = recipe.ht = recipe.relation_selection = true;
  recipe.head_selection = recipe.tail_selection = true;
  recipe.relation_indices = true;
  const auto plan =
      sparse::CompiledBatch::compile(batch, recipe, n, r, /*copy=*/true);

  EXPECT_EQ(max_abs_diff(to_dense(*plan->hrt()),
                         to_dense(build_hrt_incidence_csr(batch, n, r))),
            0.0f);
  EXPECT_EQ(max_abs_diff(to_dense(*plan->ht()),
                         to_dense(build_ht_incidence_csr(batch, n))),
            0.0f);
  EXPECT_EQ(max_abs_diff(to_dense(*plan->relation_selection()),
                         to_dense(build_relation_selection_csr(batch, r))),
            0.0f);
  EXPECT_EQ(max_abs_diff(
                to_dense(*plan->head_selection()),
                to_dense(build_entity_selection_csr(batch, n,
                                                    TripletSlot::kHead))),
            0.0f);
  EXPECT_EQ(max_abs_diff(
                to_dense(*plan->tail_selection()),
                to_dense(build_entity_selection_csr(batch, n,
                                                    TripletSlot::kTail))),
            0.0f);
  ASSERT_EQ(plan->relation_indices()->size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ((*plan->relation_indices())[i], batch[i].relation);
}

TEST(BatchPlan, ForwardOverPlanMatchesSpanDistance) {
  const kg::Dataset ds = small_dataset();
  for (const std::string& name : all_models()) {
    Rng rng(9);
    auto model = models::make_sparse_model(name, ds.num_entities(),
                                           ds.num_relations(), cfg16(), rng);
    auto* scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
    ASSERT_NE(scoring, nullptr) << name;
    const auto batch = ds.train.slice(0, 64);
    const auto plan = sparse::CompiledBatch::compile(
        batch, scoring->recipe(), ds.num_entities(), ds.num_relations(),
        /*copy=*/false);
    // run_forward on both sides: the span path and the plan path must agree
    // bit-exact under whichever dispatch (fused or autograd) SPTX_FUSED
    // selects — the property this test guards is plan-vs-span equivalence,
    // not the dispatch itself (test_fused_kernels covers that).
    const Matrix direct = scoring->distance(batch).value();
    const Matrix planned = scoring->run_forward(*plan).value();
    EXPECT_EQ(max_abs_diff(direct, planned), 0.0f) << name;
  }
}

// ---- Plan cache primitives ----------------------------------------------

TEST(BatchPlan, PlanCacheHitMissInvalidate) {
  Rng rng(4);
  std::vector<Triplet> batch;
  for (int i = 0; i < 10; ++i)
    batch.push_back({static_cast<std::int64_t>(rng.next_below(20)), 0,
                     static_cast<std::int64_t>(rng.next_below(20))});
  sparse::ScoringRecipe recipe;
  recipe.hrt = true;
  sparse::PlanCache cache;
  EXPECT_EQ(cache.find(1), nullptr);
  const auto p1 = sparse::CompiledBatch::compile(batch, recipe, 20, 1, true);
  cache.put(1, p1);
  EXPECT_EQ(cache.find(1).get(), p1.get());
  EXPECT_EQ(cache.find(2), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);  // the probe before put() + the absent key 2
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1);
  cache.invalidate();
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_EQ(cache.find(1), nullptr);
  // p1 outlives eviction — plans are shared, not owned by the cache.
  EXPECT_EQ(p1->triplets().size(), batch.size());
}

}  // namespace
}  // namespace sptx
