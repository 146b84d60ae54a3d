// Sharded data-parallel training (Appendix F substitute) over in-memory or
// mmap'd streaming triplet stores.
//
// The paper wraps SpTransE in PyTorch DDP and scales to 64 A100 GPUs
// (Table 9). This environment has no GPUs, so we build the DDP mechanics
// ourselves and measure/model the scaling:
//
//  * train_ddp — real multi-worker data parallelism over pool tasks for
//    ANY models::KgeModel. Every batch is cut into fixed-size shards; each
//    worker drives its replica through the compiled-batch pipeline (the
//    model's ScoringRecipe, per-worker sparse::PlanCache — zero incidence
//    rebuilds after epoch 0 on the fixed-order protocol) and produces a
//    per-shard gradient. Gradients are combined by a sparse-aware
//    all-reduce: only the embedding rows in a shard's incidence support
//    travel (everything outside it is identically zero), and shards reduce
//    in shard-index order — so the result is bit-identical no matter how
//    many workers executed them. Fed a kg::StreamingTripletStore the
//    trainer reads positives as zero-copy spans over the mapping and
//    samples negatives per batch, never materialising the file in RAM.
//  * ScalingModel — an analytic DDP cost model,
//        T(p) = T_compute / (p · eff(p)) + epochs · T_allreduce(p),
//    with ring all-reduce time 2·(p−1)/p · bytes / bandwidth + latency
//    hops, calibrated from a measured single-worker epoch. This produces
//    the Table 9 series for p = 4 … 64 without 64 physical devices; the
//    shape (near-linear until communication shows) is what the paper
//    reports.
//
// The epoch schedule both executors run (train_ddp here, train_ddp_procs
// in proc_ddp.hpp) lives in epoch.hpp.
//
// Registry knobs (common/runtime_config.hpp), read by resolve():
// SPTX_DDP_WORKERS, SPTX_DDP_SHARD, SPTX_DDP_PLAN_CACHE, SPTX_DDP_RETRIES,
// SPTX_CHECKPOINT_EVERY, SPTX_CHECKPOINT_KEEP, SPTX_DDP_MODE,
// SPTX_DDP_HEARTBEAT_MS, SPTX_DDP_POLICY and SPTX_DDP_SHM_BYTES override
// the corresponding DdpConfig fields.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/common/runtime_config.hpp"
#include "src/kg/triplet.hpp"
#include "src/kg/triplet_source.hpp"
#include "src/models/model.hpp"
#include "src/sparse/plan_cache.hpp"
#include "src/train/trainer.hpp"

namespace sptx::distributed {

struct DdpConfig {
  int workers = 4;          // SPTX_DDP_WORKERS overrides
  int epochs = 10;
  index_t batch_size = 4096;
  /// Gradient-shard granularity. Results depend on the shard decomposition,
  /// not on the worker count, so fixing shard_size makes training
  /// bit-identical for any `workers` (the tests' invariance anchor). 0
  /// derives ceil(batch_size / workers) — classic DDP behaviour, one shard
  /// per worker. SPTX_DDP_SHARD overrides.
  index_t shard_size = 0;
  float lr = 0.0004f;
  std::uint64_t seed = 42;
  /// Cache compiled shard plans across epochs (per-worker PlanCache). On
  /// the fixed-order protocol every epoch after the first is served
  /// entirely from cache — zero incidence rebuilds. Costs O(dataset)
  /// resident plan memory, so switch it off to train files that must not
  /// be materialised. SPTX_DDP_PLAN_CACHE overrides.
  bool plan_cache = true;
  /// Fires after every epoch with (epoch, mean_loss).
  std::function<void(int, float)> on_epoch;
  /// Worker-failure recovery budget for the whole run: when a worker dies
  /// (throws — including injected `ddp_worker` faults), its replica's
  /// half-accumulated gradients are scrubbed and the missing shards re-run
  /// on the driving thread; the epoch then completes bit-identically
  /// (reduction is shard-index-ordered, so WHO ran a shard never matters).
  /// Once the budget is exhausted the run aborts cleanly: parameters are
  /// flushed to `<checkpoint_path>.abort` (they are consistent — a batch's
  /// update is all-or-nothing) and Error{kWorkerFailed} is thrown. No
  /// hang either way. SPTX_DDP_RETRIES overrides.
  int max_worker_retries = 1;
  /// Crash safety, mirroring train::TrainConfig: rotated atomic
  /// checkpoints every N epochs (DDP epochs are self-contained — the data
  /// RNG reseeds per epoch — so a checkpoint is just replica-0 parameters
  /// + the epoch cursor, and resume is trivially bit-identical).
  /// SPTX_CHECKPOINT_EVERY / SPTX_CHECKPOINT_KEEP override.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  int checkpoint_keep = 3;
  /// Resume from a `.ep<N>` file or a base path (newest rotation wins).
  std::string resume_from;
  // ---- multi-process mode (proc_ddp.hpp executes these) ------------------
  /// "threads" (this file) or "procs": supervised worker *processes* over
  /// the UDS/shm transport — bit-identical results, process-level fault
  /// isolation (a worker SIGKILL/OOM cannot take down the trainer).
  /// SPTX_DDP_MODE overrides. Engine::train_ddp dispatches on this.
  std::string mode = "threads";
  /// Procs-mode liveness deadline: a worker that sends no frame (data or
  /// heartbeat) for this long is declared lost. SPTX_DDP_HEARTBEAT_MS
  /// overrides.
  int heartbeat_ms = 1000;
  /// What procs mode does once the respawn budget (max_worker_retries) is
  /// exhausted: "strict" flushes `<checkpoint_path>.abort` and throws
  /// Error{kWorkerLost}; "degrade" keeps training on the surviving workers
  /// (down to the supervisor alone). SPTX_DDP_POLICY overrides.
  std::string policy = "strict";
  /// Per-worker shared-memory ring bytes for gradient payloads (0 = socket
  /// inline only; oversized payloads always fall back to the socket).
  /// SPTX_DDP_SHM_BYTES overrides.
  std::int64_t shm_bytes = 1 << 20;
  /// Executable to spawn workers from ("" = fork-only: the child runs the
  /// worker loop in-process, which is what the tests use; the CLI passes
  /// /proc/self/exe so workers are real fork+exec `sptx ddp-worker`
  /// processes).
  std::string worker_exec;
  /// Base respawn backoff; doubles per consecutive respawn of the same
  /// rank (exponential backoff), capped at 32x.
  int respawn_backoff_ms = 25;
};

struct DdpResult {
  double total_seconds = 0.0;
  std::vector<float> epoch_loss;
  /// Worker replica 0 after training (all replicas are bit-identical).
  std::unique_ptr<models::KgeModel> model;
  // ---- resolved configuration -------------------------------------------
  int workers = 0;
  index_t shard_size = 0;
  // ---- counters (profiling/counters.hpp windows over this run) ----------
  /// Shard gradients computed (kDdpShards). Procs mode counts the shards
  /// the supervisor ran plus every shard frame it accepted from a worker,
  /// so a healthy run reports the same count in both modes.
  std::int64_t shards_executed = 0;
  std::int64_t allreduce_rows = 0;     // kDdpAllReduceRows (sparse path)
  std::int64_t dense_reduces = 0;      // kDdpDenseReduces (fallback path)
  /// kIncidenceBuilds. Procs mode: the supervisor's own builds only — the
  /// worker processes' counts never cross the wire (as for plan_stats).
  std::int64_t incidence_builds = 0;
  /// Plan-cache traffic of each replica this process held, and their sum
  /// (zeros when plan_cache is off). Threads mode: one entry per worker.
  /// Procs mode: one entry, the supervisor's own cache — the worker
  /// processes' caches are not reported.
  std::vector<sparse::PlanCache::Stats> worker_plan_stats;
  sparse::PlanCache::Stats plan_stats;
  // ---- fault tolerance ---------------------------------------------------
  /// First epoch this run executed (> 0 when resumed).
  int start_epoch = 0;
  /// Worker deaths detected, and shards re-run on the driving thread
  /// (threads) or the supervisor (procs).
  int worker_failures = 0;
  std::int64_t shards_reassigned = 0;
  /// Crash-safety traffic: rotated checkpoints written, newest path.
  int checkpoints_written = 0;
  std::string last_checkpoint;
  // ---- procs mode only (proc_ddp.cpp) ------------------------------------
  /// Worker processes declared dead (exit, EOF, missed heartbeat) and
  /// respawned from the last epoch checkpoint.
  int workers_lost = 0;
  int workers_respawned = 0;
  /// Transport traffic over the run (kDdpTransport* counter windows).
  std::int64_t transport_frames = 0;
  std::int64_t transport_bytes = 0;
  std::int64_t transport_retries = 0;
};

/// Thread-backed sharded data-parallel training of any KgeModel. The model
/// factory is invoked once per worker so each worker owns a replica;
/// replicas start from identical weights (same seed) and stay bit-identical
/// because every step applies the same deterministically-reduced gradient.
/// `data` binds implicitly from a TripletStore or a StreamingTripletStore.
DdpResult train_ddp(
    const std::function<std::unique_ptr<models::KgeModel>(Rng&)>& make_model,
    const kg::TripletSource& data, const DdpConfig& config);

/// Apply the registry's ten DDP overrides (listed at the top of this file)
/// to `config`.
DdpConfig resolve(const DdpConfig& config, const RuntimeConfig& rc);

/// Engine path: resolve against an explicit snapshot instead of the
/// process-wide one. Bit-identical to the overload above whenever the
/// snapshots agree.
DdpResult train_ddp(
    const std::function<std::unique_ptr<models::KgeModel>(Rng&)>& make_model,
    const kg::TripletSource& data, const DdpConfig& config,
    const RuntimeConfig& rc);

/// Analytic scaling estimate (Table 9 reproduction).
struct ScalingModel {
  double single_worker_epoch_s = 0.0;  // measured compute per epoch, 1 worker
  std::int64_t gradient_bytes = 0;     // size of the all-reduced gradient
  double bandwidth_gbps = 20.0;        // per-link all-reduce bandwidth
  double latency_us = 20.0;            // per-hop latency
  double parallel_efficiency = 0.92;   // per-doubling efficiency factor

  /// Predicted epoch count × per-epoch time for `p` workers.
  double predict_seconds(int p, int epochs) const;
};

}  // namespace sptx::distributed
