// Tests for the sptx::Engine facade: wrapper bit-identity against the
// legacy free functions (train / train_ddp / evaluate), checkpoint
// round-trips through the Engine path for every model family, frozen
//-snapshot isolation, and configuration override plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/api/engine.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/checkpoint.hpp"

namespace sptx {
namespace {

kg::Dataset tiny_dataset(std::uint64_t seed = 42) {
  Rng rng(seed);
  return kg::generate({"engine-test", 60, 5, 700}, rng, 0.05, 0.1);
}

ModelSpec tiny_spec(const std::string& family) {
  ModelSpec spec;
  spec.family = family;
  spec.config.dim = 16;
  spec.config.rel_dim = 8;
  spec.seed = 7;
  return spec;
}

std::vector<Triplet> probe_batch(const kg::Dataset& ds) {
  std::vector<Triplet> probe;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(ds.test.size(), 32); ++i)
    probe.push_back(ds.test[i]);
  return probe;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// The legacy caller's model construction — exactly what
/// models::make_model(spec, ...) must reproduce for wrappers to be
/// bit-identical.
std::unique_ptr<models::KgeModel> legacy_model(const ModelSpec& spec,
                                               const kg::Dataset& ds) {
  Rng rng(spec.seed);
  return models::make_sparse_model(spec.family, ds.num_entities(),
                                   ds.num_relations(), spec.config, rng);
}

class EngineEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineEquivalenceTest, TrainWrapperIsBitIdenticalToFreeFunction) {
  const kg::Dataset ds = tiny_dataset();
  const ModelSpec spec = tiny_spec(GetParam());
  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 128;

  // Legacy path: factory + free function.
  auto legacy = legacy_model(spec, ds);
  const auto legacy_result = train::train(*legacy, ds.train, tc);

  // Engine path: same spec, same config, same snapshot (clean env).
  Engine engine;
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  const auto engine_result = engine.train(ds.train, tc);

  ASSERT_EQ(legacy_result.epoch_loss.size(), engine_result.epoch_loss.size());
  for (std::size_t e = 0; e < legacy_result.epoch_loss.size(); ++e)
    EXPECT_EQ(legacy_result.epoch_loss[e], engine_result.epoch_loss[e])
        << "epoch " << e;

  const auto probe = probe_batch(ds);
  const auto legacy_scores = legacy->score(probe);
  const auto engine_scores = engine.model().score(probe);
  for (std::size_t i = 0; i < probe.size(); ++i)
    EXPECT_EQ(legacy_scores[i], engine_scores[i]) << "probe " << i;
}

TEST_P(EngineEquivalenceTest, EvaluateWrapperMatchesFreeFunction) {
  const kg::Dataset ds = tiny_dataset();
  const ModelSpec spec = tiny_spec(GetParam());
  train::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 128;

  auto legacy = legacy_model(spec, ds);
  train::train(*legacy, ds.train, tc);
  Engine engine;
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  engine.train(ds.train, tc);

  eval::EvalConfig ec;
  ec.max_queries = 20;
  const auto legacy_metrics = eval::evaluate(*legacy, ds, ec);
  const auto engine_metrics = engine.evaluate(ds, ec);
  EXPECT_EQ(legacy_metrics.queries, engine_metrics.queries);
  EXPECT_EQ(legacy_metrics.mrr, engine_metrics.mrr);
  EXPECT_EQ(legacy_metrics.mean_rank, engine_metrics.mean_rank);
  EXPECT_EQ(legacy_metrics.hits_at_10, engine_metrics.hits_at_10);
}

INSTANTIATE_TEST_SUITE_P(Families, EngineEquivalenceTest,
                         ::testing::Values("TransE", "TransR", "DistMult"));

TEST(EngineDdp, WrapperIsBitIdenticalToFreeFunction) {
  const kg::Dataset ds = tiny_dataset();
  const ModelSpec spec = tiny_spec("TransE");
  distributed::DdpConfig dc;
  dc.workers = 2;
  dc.epochs = 2;
  dc.batch_size = 128;
  dc.shard_size = 32;

  const kg::TripletSource source(ds.train);
  auto legacy_result = distributed::train_ddp(
      [&](Rng& rng) {
        return models::make_sparse_model(spec.family, ds.num_entities(),
                                         ds.num_relations(), spec.config,
                                         rng);
      },
      source, dc);

  Engine engine;
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  const auto engine_result = engine.train_ddp(source, dc);

  ASSERT_EQ(legacy_result.epoch_loss.size(), engine_result.epoch_loss.size());
  for (std::size_t e = 0; e < legacy_result.epoch_loss.size(); ++e)
    EXPECT_EQ(legacy_result.epoch_loss[e], engine_result.epoch_loss[e]);
  EXPECT_EQ(legacy_result.shards_executed, engine_result.shards_executed);

  // The engine adopted the trained replica; scores match the legacy one.
  const auto probe = probe_batch(ds);
  const auto legacy_scores = legacy_result.model->score(probe);
  const auto engine_scores = engine.model().score(probe);
  for (std::size_t i = 0; i < probe.size(); ++i)
    EXPECT_EQ(legacy_scores[i], engine_scores[i]);
}

// Checkpoint round-trip through the Engine for every one of the 11 sparse
// families: save via Engine, reload into a fresh Engine, and assert the
// serving layer returns identical scores.
class EngineCheckpointTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineCheckpointTest, RoundTripsThroughEngineAndSession) {
  const kg::Dataset ds = tiny_dataset(9);
  const ModelSpec spec = tiny_spec(GetParam());

  Engine engine;
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  // A couple of epochs so the weights are not pure initialisation.
  train::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 256;
  engine.train(ds.train, tc);

  const std::string path =
      temp_path(std::string("engine_ckpt_") + GetParam() + ".sptxc");
  engine.save(path);

  Engine restored;
  restored.load_model(spec, ds.num_entities(), ds.num_relations(), path);
  std::remove(path.c_str());

  const auto probe = probe_batch(ds);
  auto original = engine.open_session();
  auto reloaded = restored.open_session();
  const auto a = original->score(probe);
  const auto b = reloaded->score(probe);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << GetParam() << " probe " << i;

  // The serving queries agree too, not just raw scores.
  const auto top_a = original->top_tails(probe[0].head, probe[0].relation, 5);
  const auto top_b = reloaded->top_tails(probe[0].head, probe[0].relation, 5);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (std::size_t i = 0; i < top_a.size(); ++i) {
    EXPECT_EQ(top_a[i].entity, top_b[i].entity);
    EXPECT_EQ(top_a[i].score, top_b[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, EngineCheckpointTest,
                         ::testing::Values("TransE", "TransR", "TransH",
                                           "TorusE", "TransD", "TransA",
                                           "TransC", "TransM", "DistMult",
                                           "ComplEx", "RotatE"));

TEST(EngineFreeze, SessionsAreIsolatedFromFurtherTraining) {
  const kg::Dataset ds = tiny_dataset();
  Engine engine;
  engine.create_model(tiny_spec("TransE"), ds.num_entities(),
                      ds.num_relations());
  train::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 256;
  tc.lr = 0.05f;  // large enough steps that "the live model moved" is visible
  engine.train(ds.train, tc);

  const auto probe = probe_batch(ds);
  auto session = engine.open_session();
  const auto before = session->score(probe);

  // Training the engine further must not move the frozen snapshot...
  engine.train(ds.train, tc);
  const auto after = session->score(probe);
  for (std::size_t i = 0; i < probe.size(); ++i)
    EXPECT_EQ(before[i], after[i]);

  // ...and the engine's live model really did move.
  const auto live = engine.model().score(probe);
  bool any_diff = false;
  for (std::size_t i = 0; i < probe.size(); ++i)
    any_diff = any_diff || live[i] != before[i];
  EXPECT_TRUE(any_diff);
}

TEST(EngineConfig, OverridesAreValidatedAndVisible) {
  Engine::Options options;
  options.config_overrides = {{"SPTX_PREFETCH", "0"},
                              {"SPTX_FUSED", "off"}};
  options.install_process_config = false;
  Engine engine(options);
  EXPECT_FALSE(engine.config().flag_or("SPTX_PREFETCH", true));
  EXPECT_EQ(engine.config().value_or("SPTX_FUSED", ""), "off");
  EXPECT_EQ(engine.config().origin("SPTX_PREFETCH"),
            ConfigOrigin::kOverride);

  Engine::Options bad;
  bad.config_overrides = {{"SPTX_TYPO", "1"}};
  EXPECT_THROW(Engine{bad}, Error);
}

TEST(EngineModel, RequiresCreateBeforeUse) {
  Engine engine;
  EXPECT_FALSE(engine.has_model());
  EXPECT_THROW(engine.model(), Error);
  EXPECT_THROW(engine.save("/tmp/nope.sptxc"), Error);
  const kg::Dataset ds = tiny_dataset();
  EXPECT_THROW(engine.open_session(), Error);
  engine.create_model(tiny_spec("TransE"), ds.num_entities(),
                      ds.num_relations());
  EXPECT_TRUE(engine.has_model());
  EXPECT_EQ(engine.spec().family, "TransE");
}

}  // namespace
}  // namespace sptx
