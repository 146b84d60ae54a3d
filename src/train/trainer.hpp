// Training loop — a staged plan/execute pipeline.
//
// Mirrors the paper's protocol (§5.3): pre-generated negatives (one per
// positive, sampled outside the loop), minibatch margin-ranking training,
// fixed learning rate 0.0004, optional LR scheduler (Appendix E). The loop
// times the three phases separately — loss computation (forward), gradient
// computation (backward), parameter update (step) — exactly the breakdown
// of Table 1 / Figure 8, and snapshots FLOPs and peak tracked memory for
// Tables 5/6.
//
// Each epoch runs in two stages: plan compilation (stage the batch pairs,
// pre-build the incidence matrices the model's ScoringRecipe names — see
// batch_plan.hpp) and execution (forward/backward/step over the compiled
// plans). Plans live in a sparse::PlanCache: with the paper's fixed-order
// protocol (no shuffle, no negative resampling) the schedule is
// epoch-invariant and every epoch after the first runs with zero incidence
// rebuilds; shuffle / resample_negatives invalidate the cache and
// recompile, optionally as a pool prefetch task that compiles epoch
// e+1 while epoch e executes (double buffering — bit-exact either way,
// because all RNG stays on the driving thread).
#pragma once

#include <functional>
#include <vector>

#include "src/common/runtime_config.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/kg/triplet.hpp"
#include "src/models/model.hpp"
#include "src/nn/optim.hpp"
#include "src/profiling/timer.hpp"
#include "src/sparse/plan_cache.hpp"

namespace sptx::train {

enum class LrSchedule { kConstant, kStep, kCosine };

struct TrainConfig {
  int epochs = 200;
  index_t batch_size = 32768;
  float lr = 0.0004f;  // §5.3
  kg::CorruptionScheme corruption = kg::CorruptionScheme::kUniform;
  bool filtered_negatives = false;
  LrSchedule schedule = LrSchedule::kConstant;
  int step_lr_every = 50;
  float step_lr_gamma = 0.5f;
  std::uint64_t seed = 42;
  bool record_loss_curve = true;
  bool use_adagrad = false;
  /// Paper protocol (§5.3) keeps one pre-generated negative per positive
  /// for the whole run. Setting this regenerates negatives each epoch —
  /// off-protocol, but markedly better ranking quality on small datasets;
  /// accuracy-focused examples/benches opt in.
  bool resample_negatives = false;
  /// Negatives per positive (k ≥ 1). With k > 1 each batch tiles its
  /// positives k times against k independent corruptions (DGL-KE's
  /// negative_sample_size). Loss stays a mean, so gradients are comparable
  /// across k.
  int negatives_per_positive = 1;
  /// Early stopping: when > 0, training-loss improvement is checked every
  /// epoch and the run stops after `patience` consecutive epochs without
  /// improving the best loss by at least `min_delta` (PyKEEN-style
  /// stopper, driven by the loss so it needs no validation pass).
  int patience = 0;
  float min_delta = 1e-5f;
  /// Shuffle the (positive, negative) pairs each epoch. Off by default to
  /// keep the paper's fixed-order protocol reproducible batch-for-batch.
  bool shuffle = false;
  /// Weight decay (decoupled L2, 0 = off) and global grad-norm clipping
  /// (0 = off) — forwarded to the optimizer.
  float weight_decay = 0.0f;
  float grad_clip_norm = 0.0f;
  /// Compile epoch e+1's plans as a kPrefetch pool task while epoch e
  /// executes. Only engages when shuffle / resample_negatives invalidate
  /// plans every epoch (otherwise the cache already serves them).
  /// SPTX_PREFETCH=0|1 overrides.
  bool prefetch = true;
  /// Crash safety: when > 0, write an atomic CRC-checksummed training
  /// checkpoint (model + optimizer + RNG + epoch cursor + sampling
  /// buffers) to `<checkpoint_path>.ep<N>` after every `checkpoint_every`
  /// completed epochs. A run resumed from such a checkpoint continues the
  /// exact trajectory — final parameters are bit-identical to the
  /// uninterrupted run. SPTX_CHECKPOINT_EVERY overrides.
  int checkpoint_every = 0;
  /// Base path for rotated checkpoints; required when checkpoint_every > 0.
  std::string checkpoint_path;
  /// Retain the last N rotated checkpoints (0 = keep all).
  /// SPTX_CHECKPOINT_KEEP overrides.
  int checkpoint_keep = 3;
  /// Resume from a checkpoint: either an explicit `.ep<N>` file or a base
  /// path, in which case the highest-epoch rotation is used. Empty = fresh
  /// run. The model/optimizer/seed configuration must match the
  /// checkpointing run.
  std::string resume_from;
};

struct TrainResult {
  profiling::PhaseTimer phases;       // forward / backward / step seconds
  std::vector<float> epoch_loss;      // mean margin loss per epoch
  double total_seconds = 0.0;
  std::int64_t peak_bytes = 0;        // tracked allocation high-water mark
  std::int64_t flops = 0;             // FLOPs spent inside the loop
  /// Plan-compilation stage: synchronous compiles plus time spent waiting
  /// on the prefetch thread at epoch boundaries.
  double plan_compile_s = 0.0;
  /// Wall time per epoch (epoch 0 includes its plan compilation) — the
  /// first-epoch vs cached-epoch comparison bench_pipeline reports.
  std::vector<double> epoch_seconds;
  /// Plan-cache traffic for the run (hits/misses/invalidations).
  sparse::PlanCache::Stats plan_stats;
  /// Incidence-matrix builder invocations inside the run; with an
  /// epoch-invariant schedule everything after epoch 0 must be zero.
  std::int64_t incidence_builds = 0;
  /// First epoch this run executed (> 0 when resumed from a checkpoint).
  /// epoch_loss still covers the full trajectory; phases / epoch_seconds /
  /// total_seconds cover only this process's share.
  int start_epoch = 0;
  /// Crash-safety traffic: checkpoints written and the newest one's path.
  int checkpoints_written = 0;
  std::string last_checkpoint;
};

/// Apply the registry's training overrides (SPTX_PREFETCH,
/// SPTX_CHECKPOINT_EVERY, SPTX_CHECKPOINT_KEEP) to `config`. Knobs left unset in the snapshot keep the config's fields.
TrainConfig resolve(const TrainConfig& config, const RuntimeConfig& rc);

/// Train `model` on `data` per `config`. The callback (optional) fires after
/// every epoch with (epoch, mean_loss) — used for convergence studies.
/// Registry overrides come from the process-wide snapshot
/// (config::current()); Engine::train passes its own snapshot instead via
/// the RuntimeConfig overload. Both run the identical loop.
TrainResult train(models::KgeModel& model, const TripletStore& data,
                  const TrainConfig& config,
                  const std::function<void(int, float)>& on_epoch = {});

/// Engine path: resolve `config` against an explicit snapshot. No
/// process-global state is consulted; bit-identical to the overload above
/// whenever the snapshots agree.
TrainResult train(models::KgeModel& model, const TripletStore& data,
                  const TrainConfig& config, const RuntimeConfig& rc,
                  const std::function<void(int, float)>& on_epoch = {});

}  // namespace sptx::train
