// Fused-kernel acceptance suite (src/kernels, SPTX_FUSED).
//
//  * fused-vs-autograd loss AND per-parameter gradient equivalence for all
//    11 model families (FP tolerance — SIMD reorders additions);
//  * finite-difference gradcheck of the fused path's analytic gradients;
//  * SPTX_FUSED=off bit-identity with a hand-composed legacy graph;
//  * score() is bit-identical under SPTX_FUSED=on and off (it is the
//    forward kernel alone) and within FP tolerance of distance();
//  * the kFusedBatches counter proves which path actually ran;
//  * steady-state training through the fused path performs zero tracked
//    heap allocations (the Workspace-pool property of the legacy path);
//  * forward kernels split big batches into chunks on the TaskPool: scores
//    and the (serial) backward's gradients are bit-identical at pool widths
//    1, 2 and 4, and a one-chunk batch never opens a parallel region.
//
// CMake registers this suite twice — once as-is and once with
// SPTX_NO_SIMD=1 — so both sides of the AVX2/scalar dispatch are covered on
// every machine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/autograd/ops.hpp"
#include "src/kernels/fused.hpp"
#include "src/kg/dataset.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/model.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/tensor/memory_tracker.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

constexpr const char* kAllModels[] = {"TransE",   "TransR", "TransH",
                                      "TorusE",   "TransD", "TransA",
                                      "TransC",   "TransM", "DistMult",
                                      "ComplEx",  "RotatE"};
constexpr const char* kFusedModels[] = {"TransE", "TransR", "TransH",
                                        "TorusE", "TransD", "TransA",
                                        "TransC", "TransM"};

models::ModelConfig small_config(models::Dissimilarity diss) {
  models::ModelConfig cfg;
  cfg.dim = 12;  // even: ComplEx/RotatE interleave (re, im)
  cfg.rel_dim = 6;
  cfg.margin = 5.0f;  // hinge active for every pair: smooth for comparisons
  cfg.dissimilarity = diss;
  return cfg;
}

struct Batches {
  std::vector<Triplet> pos;
  std::vector<Triplet> neg;
};

Batches make_batches(index_t n, index_t r, std::uint64_t seed,
                     std::size_t count) {
  Rng rng(seed);
  kg::Dataset ds = kg::generate({"fused", n, r, 400}, rng, 0.0, 0.0);
  kg::NegativeSampler sampler(ds.train, kg::CorruptionScheme::kUniform);
  Batches b;
  b.pos.assign(ds.train.triplets().begin(),
               ds.train.triplets().begin() +
                   static_cast<std::ptrdiff_t>(count));
  std::vector<Triplet> all(ds.train.triplets().begin(),
                           ds.train.triplets().end());
  const auto neg = sampler.pregenerate(all, rng);
  b.neg.assign(neg.begin(), neg.begin() + static_cast<std::ptrdiff_t>(count));
  return b;
}

std::unique_ptr<models::KgeModel> fresh(const std::string& name, index_t n,
                                        index_t r,
                                        const models::ModelConfig& cfg,
                                        std::uint64_t seed) {
  Rng rng(seed);
  return models::make_sparse_model(name, n, r, cfg, rng);
}

// ---- fused vs autograd: loss and gradients --------------------------------

class FusedEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

void expect_equivalent(const std::string& name, models::Dissimilarity diss) {
  constexpr index_t kN = 40, kR = 5;
  const models::ModelConfig cfg = small_config(diss);
  const Batches b = make_batches(kN, kR, 11, 64);

  auto run = [&](const char* mode) {
    config::ScopedOverride fused("SPTX_FUSED", mode);
    auto model = fresh(name, kN, kR, cfg, 7);
    autograd::Variable loss = model->loss(b.pos, b.neg);
    loss.backward();
    std::vector<Matrix> grads;
    for (auto& p : model->params()) grads.push_back(p.grad());
    return std::make_pair(loss.value().at(0, 0), std::move(grads));
  };

  const auto [loss_off, grads_off] = run("off");
  const auto [loss_on, grads_on] = run("on");

  EXPECT_NEAR(loss_on, loss_off, 1e-4f * (1.0f + std::fabs(loss_off)))
      << name;
  ASSERT_EQ(grads_on.size(), grads_off.size()) << name;
  for (std::size_t k = 0; k < grads_on.size(); ++k) {
    ASSERT_TRUE(grads_on[k].same_shape(grads_off[k])) << name;
    for (index_t i = 0; i < grads_on[k].size(); ++i) {
      const float a = grads_on[k].data()[i];
      const float e = grads_off[k].data()[i];
      EXPECT_NEAR(a, e, 2e-4f * (1.0f + std::fabs(e)))
          << name << " param " << k << " flat index " << i;
    }
  }
}

TEST_P(FusedEquivalenceTest, LossAndGradientsMatchAutogradL2) {
  expect_equivalent(GetParam(), models::Dissimilarity::kL2);
}

TEST_P(FusedEquivalenceTest, LossAndGradientsMatchAutogradL1) {
  expect_equivalent(GetParam(), models::Dissimilarity::kL1);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FusedEquivalenceTest,
                         ::testing::ValuesIn(kAllModels));

// ---- gradcheck of the fused analytic gradients ----------------------------

class FusedGradcheckTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FusedGradcheckTest, AnalyticMatchesFiniteDifferences) {
  // Checks d(Σ scores)/d(param) for every parameter entry against central
  // finite differences, through the fused path. The score sum avoids the
  // margin hinge so FD stays smooth; RotatE's relation block is excluded
  // (its analytic rule is the standard projected-gradient approximation,
  // deliberately not the FD gradient).
  const std::string name = GetParam();
  constexpr index_t kN = 10, kR = 3;
  const models::ModelConfig cfg = small_config(models::Dissimilarity::kL2);
  const Batches b = make_batches(kN, kR, 13, 12);
  config::ScopedOverride fused("SPTX_FUSED", "on");

  auto model = fresh(name, kN, kR, cfg, 21);
  auto* scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
  ASSERT_NE(scoring, nullptr);

  autograd::Variable loss = autograd::sum_all(scoring->distance(b.pos));
  loss.backward();

  auto params = model->params();
  const float eps = 1e-3f;
  const float tol = 2e-2f;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const Matrix analytic = params[k].grad();
    Matrix& values = params[k].mutable_value();
    const bool skip_relation_rows = name == "RotatE" && k == 0;
    for (index_t i = 0; i < values.size(); ++i) {
      if (skip_relation_rows && i / values.cols() >= kN) continue;
      // Numeric side re-runs the same ranking-ready forward (similarity
      // models negate inside distance(), score() keeps the natural sign).
      const auto column_sum = [&]() {
        const Matrix col = scoring->distance(b.pos).value();
        double acc = 0.0;  // double: keeps FD from drowning in cancellation
        for (index_t row = 0; row < col.rows(); ++row) acc += col.at(row, 0);
        return acc;
      };
      const float saved = values.data()[i];
      values.data()[i] = saved + eps;
      const double lp = column_sum();
      values.data()[i] = saved - eps;
      const double lm = column_sum();
      values.data()[i] = saved;
      const float numeric =
          static_cast<float>((lp - lm) / (2.0 * static_cast<double>(eps)));
      EXPECT_NEAR(analytic.data()[i], numeric,
                  tol * (1.0f + std::fabs(numeric)))
          << name << " param " << k << " flat index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FusedGradcheckTest,
                         ::testing::ValuesIn(kAllModels));

// ---- SPTX_FUSED=off is bit-identical to the hand-built legacy graph ------

TEST(FusedKernels, OffModeIsBitIdenticalToLegacyGraph) {
  constexpr index_t kN = 30, kR = 4;
  const models::ModelConfig cfg = small_config(models::Dissimilarity::kL2);
  const Batches b = make_batches(kN, kR, 17, 32);
  config::ScopedOverride fused("SPTX_FUSED", "off");

  for (const char* name : kFusedModels) {
    auto via_api = fresh(name, kN, kR, cfg, 9);
    autograd::Variable l1 = via_api->loss(b.pos, b.neg);
    l1.backward();

    auto by_hand = fresh(name, kN, kR, cfg, 9);
    auto* scoring = dynamic_cast<models::ScoringCoreModel*>(by_hand.get());
    ASSERT_NE(scoring, nullptr) << name;
    const auto pp = sparse::CompiledBatch::compile(
        b.pos, scoring->recipe(), kN, kR, /*copy_triplets=*/false);
    const auto np = sparse::CompiledBatch::compile(
        b.neg, scoring->recipe(), kN, kR, /*copy_triplets=*/false);
    autograd::Variable l2 =
        models::ranking_loss(scoring->forward(*pp), scoring->forward(*np),
                             cfg);
    l2.backward();

    EXPECT_EQ(l1.value().at(0, 0), l2.value().at(0, 0)) << name;
    auto p1 = via_api->params();
    auto p2 = by_hand->params();
    ASSERT_EQ(p1.size(), p2.size()) << name;
    for (std::size_t k = 0; k < p1.size(); ++k) {
      for (index_t i = 0; i < p1[k].grad().size(); ++i) {
        EXPECT_EQ(p1[k].grad().data()[i], p2[k].grad().data()[i])
            << name << " param " << k << " flat index " << i;
      }
    }
  }
}

// ---- the knob really routes the path --------------------------------------

TEST(FusedKernels, CounterProvesDispatch) {
  constexpr index_t kN = 30, kR = 4;
  const models::ModelConfig cfg = small_config(models::Dissimilarity::kL2);
  const Batches b = make_batches(kN, kR, 19, 16);
  {
    config::ScopedOverride fused("SPTX_FUSED", "on");
    auto model = fresh("TransE", kN, kR, cfg, 3);
    profiling::CounterWindow window(profiling::Counter::kFusedBatches);
    model->loss(b.pos, b.neg).backward();
    EXPECT_EQ(window.elapsed(), 2);  // one fused node per score column
  }
  {
    config::ScopedOverride fused("SPTX_FUSED", "off");
    auto model = fresh("TransE", kN, kR, cfg, 3);
    profiling::CounterWindow window(profiling::Counter::kFusedBatches);
    model->loss(b.pos, b.neg).backward();
    EXPECT_EQ(window.elapsed(), 0);
  }
  {
    // Families without fused kernels fall back silently when on.
    config::ScopedOverride fused("SPTX_FUSED", "on");
    auto model = fresh("DistMult", kN, kR, cfg, 3);
    profiling::CounterWindow window(profiling::Counter::kFusedBatches);
    model->loss(b.pos, b.neg).backward();
    EXPECT_EQ(window.elapsed(), 0);
  }
}

// ---- score() dispatch --------------------------------------------------

TEST(FusedKernels, ScoreMatchesAutogradDistanceUnderEitherFlag) {
  // score() is the family's forward kernel alone: SPTX_FUSED, which selects
  // only the training graph, must not change a single bit of it, and it
  // must agree with the autograd graph's distance() column.
  constexpr index_t kN = 40, kR = 5;
  const Batches b = make_batches(kN, kR, 23, 48);
  for (const char* name : kFusedModels) {
    for (const auto diss :
         {models::Dissimilarity::kL2, models::Dissimilarity::kL1}) {
      const models::ModelConfig cfg = small_config(diss);
      auto model = fresh(name, kN, kR, cfg, 5);
      auto* scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
      ASSERT_NE(scoring, nullptr) << name;
      std::vector<float> score_off, score_on;
      Matrix reference;
      {
        config::ScopedOverride off("SPTX_FUSED", "off");
        score_off = model->score(b.pos);
        reference = scoring->distance(b.pos).value();
      }
      {
        config::ScopedOverride on("SPTX_FUSED", "on");
        score_on = model->score(b.pos);
      }
      ASSERT_EQ(score_on.size(), b.pos.size()) << name;
      ASSERT_EQ(reference.rows(), static_cast<index_t>(b.pos.size())) << name;
      for (std::size_t i = 0; i < score_on.size(); ++i) {
        EXPECT_EQ(score_on[i], score_off[i]) << name << " row " << i;
        const float expected = reference.at(static_cast<index_t>(i), 0);
        EXPECT_NEAR(score_on[i], expected,
                    1e-4f * (1.0f + std::fabs(expected)))
            << name << " row " << i;
      }
    }
  }
}

// ---- zero-allocation steady state -----------------------------------------

TEST(FusedKernels, SteadyStateTrainingPerformsZeroAllocations) {
  config::ScopedOverride fused("SPTX_FUSED", "on");
  Rng rng(5);
  kg::Dataset ds = kg::generate({"fws", 120, 6, 1200}, rng, 0.0, 0.0);
  for (const char* name : {"TransE", "TransR", "TorusE", "TransH"}) {
    models::ModelConfig cfg;
    cfg.dim = 16;
    cfg.rel_dim = 8;
    Rng mr(6);
    auto model = models::make_sparse_model(name, ds.num_entities(),
                                           ds.num_relations(), cfg, mr);
    train::TrainConfig tc;
    tc.epochs = 4;
    tc.batch_size = 256;
    std::vector<std::int64_t> allocs_per_epoch;
    train::train(*model, ds.train, tc, [&](int, float) {
      allocs_per_epoch.push_back(MemoryTracker::instance().total_allocs());
    });
    ASSERT_EQ(allocs_per_epoch.size(), 4u);
    EXPECT_EQ(allocs_per_epoch[1], allocs_per_epoch[0]) << name;
    EXPECT_EQ(allocs_per_epoch[2], allocs_per_epoch[1]) << name;
    EXPECT_EQ(allocs_per_epoch[3], allocs_per_epoch[2]) << name;
  }
}

// ---- forward chunks on the pool ---------------------------------------------

/// The families whose kernels live in fused.cpp (TransR has its own).
constexpr const char* kChunkedFamilies[] = {"TransE", "TransC", "TorusE",
                                            "TransA", "TransM", "TransH",
                                            "TransD"};

/// Resizes the shared pool for one scope, restoring the old width after.
class ScopedPoolWidth {
 public:
  explicit ScopedPoolWidth(int width)
      : before_(runtime::TaskPool::instance().threads()) {
    runtime::TaskPool::instance().resize(width);
  }
  ~ScopedPoolWidth() { runtime::TaskPool::instance().resize(before_); }
  ScopedPoolWidth(const ScopedPoolWidth&) = delete;
  ScopedPoolWidth& operator=(const ScopedPoolWidth&) = delete;

 private:
  int before_;
};

std::vector<Triplet> random_triplets(index_t n, index_t r, std::size_t count,
                                     std::uint64_t seed) {
  Rng rng(seed);
  const auto draw = [&rng](index_t below) {
    return static_cast<index_t>(
        rng.next_below(static_cast<std::uint64_t>(below)));
  };
  std::vector<Triplet> out(count);
  for (Triplet& t : out) {
    t.head = draw(n);
    t.relation = draw(r);
    t.tail = draw(n);
  }
  return out;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Big enough that every entity table passes the prefetch threshold and that
// every family's batch spans at least 8 chunks (TransE/TransC/TorusE/TransM
// read the fewest rows per triplet, 3, so they have the largest chunks).
constexpr index_t kPoolN = 20000, kPoolR = 8, kPoolDim = 64;
constexpr std::size_t kPoolBatch = static_cast<std::size_t>(
    8 * kernels::kForwardChunkFloats / (3 * kPoolDim) + 7);

models::ModelConfig pool_config(models::Dissimilarity diss) {
  models::ModelConfig cfg = small_config(diss);
  cfg.dim = kPoolDim;
  return cfg;
}

TEST(FusedKernels, ChunkedForwardIsBitIdenticalAtEveryPoolWidth) {
  const auto batch = random_triplets(kPoolN, kPoolR, kPoolBatch, 29);
  for (const char* name : kChunkedFamilies) {
    for (const auto diss :
         {models::Dissimilarity::kL2, models::Dissimilarity::kL1}) {
      auto model = fresh(name, kPoolN, kPoolR, pool_config(diss), 4);
      // Reference: the batch scored in one-chunk blocks (score() is
      // element-pure per triplet, so block boundaries change no bit).
      std::vector<float> reference;
      for (std::size_t i = 0; i < batch.size(); i += 512) {
        const auto block = model->score(std::span<const Triplet>(batch).subspan(
            i, std::min<std::size_t>(512, batch.size() - i)));
        reference.insert(reference.end(), block.begin(), block.end());
      }
      for (const int width : {1, 2, 4}) {
        ScopedPoolWidth pool(width);
        profiling::CounterWindow chunks(
            profiling::Counter::kRuntimeChunksExecuted);
        EXPECT_TRUE(same_bits(model->score(batch), reference))
            << name << " width " << width;
        if (width > 1) {
          EXPECT_GE(chunks.elapsed(), 8) << name << " width " << width;
        }
      }
    }
  }
}

TEST(FusedKernels, BackwardGradientsMatchTheSingleLaneRun) {
  const auto pos = random_triplets(kPoolN, kPoolR, kPoolBatch, 31);
  const auto neg = random_triplets(kPoolN, kPoolR, kPoolBatch, 37);
  config::ScopedOverride fused("SPTX_FUSED", "on");
  for (const char* name : kChunkedFamilies) {
    for (const auto diss :
         {models::Dissimilarity::kL2, models::Dissimilarity::kL1}) {
      float reference_loss = 0.0f;
      std::vector<Matrix> reference;
      for (const int width : {1, 2, 4}) {
        ScopedPoolWidth pool(width);
        auto model = fresh(name, kPoolN, kPoolR, pool_config(diss), 4);
        autograd::Variable loss = model->loss(pos, neg);
        loss.backward();
        auto params = model->params();
        if (width == 1) {
          reference_loss = loss.value().at(0, 0);
          for (auto& p : params) reference.push_back(p.grad());
          continue;
        }
        const float l = loss.value().at(0, 0);
        EXPECT_TRUE(same_bits({&l, 1}, {&reference_loss, 1}))
            << name << " width " << width;
        ASSERT_EQ(params.size(), reference.size()) << name;
        for (std::size_t k = 0; k < params.size(); ++k) {
          const Matrix& g = params[k].grad();
          const Matrix& want = reference[k];
          EXPECT_TRUE(
              same_bits({g.data(), static_cast<std::size_t>(g.size())},
                        {want.data(), static_cast<std::size_t>(want.size())}))
              << name << " param " << k << " width " << width;
        }
      }
    }
  }
}

TEST(FusedKernels, OneChunkBatchRunsInlineOnTheCaller) {
  // 48 triplets at d = 12 are far below a chunk: even on a 4-lane pool the
  // forward must not open a region (a queue lock and a wake-up for nothing).
  constexpr index_t kN = 40, kR = 5;
  const Batches b = make_batches(kN, kR, 41, 48);
  ScopedPoolWidth pool(4);
  for (const char* name : kChunkedFamilies) {
    auto model = fresh(name, kN, kR, small_config(models::Dissimilarity::kL2),
                       5);
    profiling::CounterWindow inline_loops(
        profiling::Counter::kRuntimeInlineLoops);
    profiling::CounterWindow regions(
        profiling::Counter::kRuntimeParallelRegions);
    model->score(b.pos);
    EXPECT_GE(inline_loops.elapsed(), 1) << name;
    EXPECT_EQ(regions.elapsed(), 0) << name;
  }
}

// ---- training through the fused path behaves -------------------------------

TEST(FusedKernels, FusedTrainingConvergesLikeAutograd) {
  // End-to-end: same seed, same data, fused vs autograd runs reach closely
  // matching loss trajectories (tolerance: FP reassociation compounds over
  // steps).
  Rng rng(31);
  kg::Dataset ds = kg::generate({"fconv", 80, 4, 600}, rng, 0.0, 0.0);
  for (const char* name : {"TransE", "TransR", "TorusE"}) {
    models::ModelConfig cfg;
    cfg.dim = 16;
    cfg.rel_dim = 8;
    train::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 128;
    tc.lr = 0.05f;
    std::vector<float> loss_fused, loss_auto;
    {
      config::ScopedOverride fused("SPTX_FUSED", "on");
      Rng mr(8);
      auto model = models::make_sparse_model(name, ds.num_entities(),
                                             ds.num_relations(), cfg, mr);
      loss_fused = train::train(*model, ds.train, tc).epoch_loss;
    }
    {
      config::ScopedOverride fused("SPTX_FUSED", "off");
      Rng mr(8);
      auto model = models::make_sparse_model(name, ds.num_entities(),
                                             ds.num_relations(), cfg, mr);
      loss_auto = train::train(*model, ds.train, tc).epoch_loss;
    }
    ASSERT_EQ(loss_fused.size(), loss_auto.size()) << name;
    for (std::size_t e = 0; e < loss_fused.size(); ++e) {
      EXPECT_NEAR(loss_fused[e], loss_auto[e],
                  1e-3f * (1.0f + std::fabs(loss_auto[e])))
          << name << " epoch " << e;
    }
    EXPECT_LT(loss_fused.back(), loss_fused.front()) << name;
  }
}

}  // namespace
}  // namespace sptx
