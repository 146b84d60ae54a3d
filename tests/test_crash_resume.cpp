// Crash-safety end to end: checkpoint/resume bit-identity for the training
// loop (both pipelines, three model families), a real kill-and-resume drill
// driven by the fault harness (the child process is _Exit(137)'d mid
// checkpoint write, the parent resumes from the surviving rotation), and
// DDP worker-death recovery / clean abort / checkpoint resume.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/distributed/ddp.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/checkpoint.hpp"
#include "src/models/model.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

/// Per-process scratch directory. ctest runs this binary twice (the _pool4
/// lane), possibly at once under -j; shared checkpoint names in TempDir()
/// would let one process rename or prune the other's rotations.
const std::string& scratch_dir() {
  static const std::string dir = [] {
    std::string d = ::testing::TempDir() + "/sptx_crash_resume_" +
                    std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

/// Removes scratch_dir() once every test has run.
class ScratchDirCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir(), ec);
  }
};
::testing::Environment* const kScratchDirCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchDirCleanup);

models::ModelConfig cfg8() {
  models::ModelConfig cfg;
  cfg.dim = 8;
  cfg.rel_dim = 4;
  return cfg;
}

kg::Dataset crash_dataset() {
  Rng rng(5);
  return kg::generate({"crash", 40, 3, 400}, rng, 0.05, 0.1);
}

/// The strongest equality there is: two models serialise to byte-identical
/// checkpoints iff every parameter is bit-identical.
std::string ckpt_bytes(models::KgeModel& model) {
  static std::atomic<int> counter{0};
  const std::string path = scratch_dir() + "/probe_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter.fetch_add(1));
  models::save_checkpoint(model, path);
  std::ifstream is(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

void remove_rotations(const std::string& base) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path base_path(base);
  fs::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().starts_with(
            base_path.filename().string()))
      fs::remove(entry.path(), ec);
  }
}

// ---------------------------------------------------------------------------
// Trainer checkpoint/resume — parameterised over model family.
// ---------------------------------------------------------------------------

class CrashResumeTest : public ::testing::TestWithParam<const char*> {
 protected:
  kg::Dataset ds = crash_dataset();

  std::unique_ptr<models::KgeModel> make(std::uint64_t seed) const {
    Rng rng(seed);
    return models::make_sparse_model(GetParam(), ds.num_entities(),
                                     ds.num_relations(), cfg8(), rng);
  }

  train::TrainConfig base_config() const {
    train::TrainConfig tc;
    tc.epochs = 6;
    tc.batch_size = 64;
    tc.lr = 0.05f;
    tc.seed = 13;
    // Shuffle + per-epoch resampling exercise every RNG stream a resume
    // must restore; a fixed-order run would pass with a broken RNG save.
    tc.shuffle = true;
    tc.resample_negatives = true;
    return tc;
  }

  std::string tag() const { return GetParam(); }
};

TEST_P(CrashResumeTest, ResumeContinuesTheExactTrajectory) {
  // A — the uninterrupted reference run.
  auto model_a = make(3);
  const auto result_a = train::train(*model_a, ds.train, base_config());
  const std::string want = ckpt_bytes(*model_a);

  // B — same run, writing rotated checkpoints. Checkpointing must not
  // perturb the trajectory.
  const std::string base =
      scratch_dir() + "/resume_" + tag();
  remove_rotations(base);
  auto tc_b = base_config();
  tc_b.checkpoint_every = 2;
  tc_b.checkpoint_path = base;
  tc_b.checkpoint_keep = 0;  // keep all rotations
  auto model_b = make(3);
  const auto result_b = train::train(*model_b, ds.train, tc_b);
  EXPECT_EQ(ckpt_bytes(*model_b), want);
  // Epochs 2 and 4 rotate; the final state IS the result, never rewritten.
  EXPECT_EQ(result_b.checkpoints_written, 2);
  EXPECT_EQ(result_b.last_checkpoint,
            models::checkpoint_path_for_epoch(base, 4));

  // C — resume from the newest rotation with a DIFFERENT init seed: every
  // parameter must come from the checkpoint, not the constructor.
  auto tc_c = base_config();
  tc_c.resume_from = base;
  auto model_c = make(99);
  const auto result_c = train::train(*model_c, ds.train, tc_c);
  EXPECT_EQ(result_c.start_epoch, 4);
  EXPECT_EQ(ckpt_bytes(*model_c), want);
  // The stitched loss curve equals the uninterrupted one.
  ASSERT_EQ(result_c.epoch_loss.size(), result_a.epoch_loss.size());
  for (std::size_t i = 0; i < result_a.epoch_loss.size(); ++i)
    EXPECT_FLOAT_EQ(result_c.epoch_loss[i], result_a.epoch_loss[i]);

  // D — resume from an explicit earlier rotation replays more epochs to
  // the same bits.
  auto tc_d = base_config();
  tc_d.resume_from = models::checkpoint_path_for_epoch(base, 2);
  auto model_d = make(123);
  const auto result_d = train::train(*model_d, ds.train, tc_d);
  EXPECT_EQ(result_d.start_epoch, 2);
  EXPECT_EQ(ckpt_bytes(*model_d), want);
  remove_rotations(base);
}

TEST_P(CrashResumeTest, KillMidCheckpointThenResumeIsBitIdentical) {
  // Reference run in the parent.
  auto model_a = make(3);
  train::train(*model_a, ds.train, base_config());
  const std::string want = ckpt_bytes(*model_a);

  const std::string base = scratch_dir() + "/kill_" + tag();
  remove_rotations(base);
  auto tc = base_config();
  tc.checkpoint_every = 2;
  tc.checkpoint_path = base;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: warm the TaskPool FIRST so its workers are live threads when
    // the kill lands — the pool4 variant of this suite then proves the
    // drill survives dying (and the fork surviving) with a populated pool,
    // the exact hazard TaskPool's getpid() revalidation exists for.
    {
      runtime::TaskGroup warmup;
      runtime::TaskPool::instance().submit(warmup, [] {});
      warmup.wait();
    }
    // Simulated SIGKILL on the SECOND checkpoint commit (epoch 4's),
    // after the temp file is written but before the rename — the classic
    // torn-write window.
    fault::install("checkpoint_write:kill@2");
    auto model_b = make(3);
    try {
      train::train(*model_b, ds.train, tc);
    } catch (...) {
    }
    std::_Exit(42);  // not reached: the fault harness exits first
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137);  // died inside the commit

  // The torn epoch-4 write must be invisible: the newest VALID rotation is
  // epoch 2 (the orphaned temp file never matches a rotation name).
  const auto found = models::latest_checkpoint(base);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->epoch, 2);

  // Resume in the parent from the survivor: bit-identical final state.
  auto tc_resume = base_config();
  tc_resume.resume_from = base;
  auto model_c = make(77);
  const auto result = train::train(*model_c, ds.train, tc_resume);
  EXPECT_EQ(result.start_epoch, 2);
  EXPECT_EQ(ckpt_bytes(*model_c), want);
  remove_rotations(base);
}

INSTANTIATE_TEST_SUITE_P(Families, CrashResumeTest,
                         ::testing::Values("TransE", "TransR", "DistMult"));

TEST(CrashResume, RetentionPrunesOldRotations) {
  const kg::Dataset ds = crash_dataset();
  const std::string base = scratch_dir() + "/retention";
  remove_rotations(base);
  Rng rng(3);
  auto model =
      models::make_sparse_model("TransE", ds.num_entities(),
                                ds.num_relations(), cfg8(), rng);
  train::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 64;
  tc.checkpoint_every = 2;
  tc.checkpoint_path = base;
  tc.checkpoint_keep = 1;
  const auto result = train::train(*model, ds.train, tc);
  EXPECT_EQ(result.checkpoints_written, 3);  // ep2, ep4, ep6 (8 is final)
  // Only the newest survives the keep=1 retention.
  EXPECT_FALSE(std::filesystem::exists(
      models::checkpoint_path_for_epoch(base, 2)));
  EXPECT_FALSE(std::filesystem::exists(
      models::checkpoint_path_for_epoch(base, 4)));
  const auto found = models::latest_checkpoint(base);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->epoch, 6);
  remove_rotations(base);
}

TEST(CrashResume, MissingResumeSourceIsTypedIo) {
  const kg::Dataset ds = crash_dataset();
  Rng rng(3);
  auto model =
      models::make_sparse_model("TransE", ds.num_entities(),
                                ds.num_relations(), cfg8(), rng);
  train::TrainConfig tc;
  tc.epochs = 2;
  tc.resume_from = scratch_dir() + "/definitely_not_there";
  try {
    train::train(*model, ds.train, tc);
    FAIL() << "resume from a missing checkpoint must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

// ---------------------------------------------------------------------------
// DDP fault tolerance.
// ---------------------------------------------------------------------------

struct DdpFixture {
  kg::Dataset ds = crash_dataset();

  std::function<std::unique_ptr<models::KgeModel>(Rng&)> factory() const {
    const index_t n = ds.num_entities(), r = ds.num_relations();
    return [n, r](Rng& rng) {
      return models::make_sparse_model("TransE", n, r, cfg8(), rng);
    };
  }

  distributed::DdpConfig config() const {
    distributed::DdpConfig dc;
    dc.workers = 3;
    dc.epochs = 3;
    dc.batch_size = 128;
    dc.shard_size = 32;  // fixed decomposition: results worker-invariant
    dc.lr = 0.05f;
    dc.seed = 11;
    return dc;
  }
};

TEST(DdpFault, WorkerDeathRecoversBitIdentically) {
  DdpFixture fx;
  const auto clean = distributed::train_ddp(fx.factory(), fx.ds.train,
                                            fx.config());

  // Worker 1 dies on every shard it touches in epoch 1 — once per BATCH,
  // so the budget must cover every batch of the epoch; the driving thread
  // re-runs its shards and the epoch completes bit-identically (reduction
  // is shard-index-ordered — WHO ran a shard never matters).
  auto dc = fx.config();
  dc.max_worker_retries = 16;
  fault::install("ddp_worker:die@1:1");
  const auto recovered = distributed::train_ddp(fx.factory(), fx.ds.train,
                                                dc);
  fault::clear();

  EXPECT_GE(recovered.worker_failures, 1);
  EXPECT_GE(recovered.shards_reassigned, 1);
  EXPECT_EQ(ckpt_bytes(*recovered.model), ckpt_bytes(*clean.model));
  ASSERT_EQ(recovered.epoch_loss.size(), clean.epoch_loss.size());
  for (std::size_t i = 0; i < clean.epoch_loss.size(); ++i)
    EXPECT_FLOAT_EQ(recovered.epoch_loss[i], clean.epoch_loss[i]);
}

TEST(DdpFault, ExhaustedRetriesAbortCleanlyWithValidCheckpoint) {
  DdpFixture fx;
  auto dc = fx.config();
  dc.max_worker_retries = 0;
  dc.checkpoint_path = scratch_dir() + "/ddp_abort";
  std::remove((dc.checkpoint_path + ".abort").c_str());

  fault::install("ddp_worker:die@0:2");
  try {
    distributed::train_ddp(fx.factory(), fx.ds.train, dc);
    fault::clear();
    FAIL() << "retry budget 0 must abort on a worker death";
  } catch (const Error& e) {
    fault::clear();
    EXPECT_EQ(e.code(), ErrorCode::kWorkerFailed);
  }

  // The abort flushed consistent parameters; a fresh model loads them.
  Rng rng(1);
  auto model = fx.factory()(rng);
  EXPECT_NO_THROW(
      models::load_checkpoint(*model, dc.checkpoint_path + ".abort"));
  std::remove((dc.checkpoint_path + ".abort").c_str());
}

TEST(DdpFault, CheckpointResumeMatchesUninterrupted) {
  DdpFixture fx;
  auto dc = fx.config();
  dc.epochs = 4;
  const auto full = distributed::train_ddp(fx.factory(), fx.ds.train, dc);
  const std::string want = ckpt_bytes(*full.model);

  const std::string base = scratch_dir() + "/ddp_resume";
  remove_rotations(base);
  auto dc_ckpt = dc;
  dc_ckpt.checkpoint_every = 2;
  dc_ckpt.checkpoint_path = base;
  const auto half = distributed::train_ddp(fx.factory(), fx.ds.train,
                                           dc_ckpt);
  EXPECT_EQ(half.checkpoints_written, 1);  // ep2 (4 is the final state)
  EXPECT_EQ(ckpt_bytes(*half.model), want);

  auto dc_resume = dc;
  dc_resume.resume_from = base;
  const auto resumed = distributed::train_ddp(fx.factory(), fx.ds.train,
                                              dc_resume);
  EXPECT_EQ(resumed.start_epoch, 2);
  EXPECT_EQ(ckpt_bytes(*resumed.model), want);
  ASSERT_EQ(resumed.epoch_loss.size(), full.epoch_loss.size());
  for (std::size_t i = 0; i < full.epoch_loss.size(); ++i)
    EXPECT_FLOAT_EQ(resumed.epoch_loss[i], full.epoch_loss[i]);
  remove_rotations(base);
}

}  // namespace
}  // namespace sptx
