#include "src/distributed/ddp.hpp"

#include <cmath>
#include <exception>
#include <string>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/distributed/epoch.hpp"
#include "src/runtime/task_pool.hpp"

namespace sptx::distributed {

DdpConfig resolve(const DdpConfig& config, const RuntimeConfig& rc) {
  DdpConfig resolved = config;
  resolved.workers = static_cast<int>(
      rc.int_or("SPTX_DDP_WORKERS", config.workers));
  resolved.shard_size = static_cast<index_t>(
      rc.int_or("SPTX_DDP_SHARD", config.shard_size));
  resolved.plan_cache = rc.flag_or("SPTX_DDP_PLAN_CACHE", config.plan_cache);
  resolved.max_worker_retries = static_cast<int>(
      rc.int_or("SPTX_DDP_RETRIES", config.max_worker_retries));
  resolved.checkpoint_every = static_cast<int>(
      rc.int_or("SPTX_CHECKPOINT_EVERY", config.checkpoint_every));
  resolved.checkpoint_keep = static_cast<int>(
      rc.int_or("SPTX_CHECKPOINT_KEEP", config.checkpoint_keep));
  resolved.mode = to_lower(rc.value_or("SPTX_DDP_MODE", config.mode));
  resolved.heartbeat_ms = static_cast<int>(
      rc.int_or("SPTX_DDP_HEARTBEAT_MS", config.heartbeat_ms));
  resolved.policy = to_lower(rc.value_or("SPTX_DDP_POLICY", config.policy));
  resolved.shm_bytes = rc.int_or("SPTX_DDP_SHM_BYTES", config.shm_bytes);
  return resolved;
}

DdpResult train_ddp(
    const std::function<std::unique_ptr<models::KgeModel>(Rng&)>& make_model,
    const kg::TripletSource& data, const DdpConfig& config,
    const RuntimeConfig& rc) {
  const DdpConfig res = resolve(config, rc);
  const index_t shard_size = checked_shard_size(res, data);
  fault::init_from_config();
  const int p = res.workers;

  // Identical replicas: every worker constructs from the same seed.
  std::vector<Replica> replicas(static_cast<std::size_t>(p));
  for (Replica& rep : replicas) {
    Rng rng(res.seed);
    rep.init(make_model(rng), res.plan_cache);
    SPTX_CHECK(rep.params.size() == replicas[0].params.size(),
               "replica parameter sets diverge");
  }

  DdpResult result;
  RunLog log(res, shard_size, result);
  const int start_epoch = log.resume(replicas);
  // Worker-failure recovery budget for the whole run.
  int retries_left = res.max_worker_retries;

  for (int epoch = start_epoch; epoch < res.epochs; ++epoch) {
    log.begin_epoch();
    EpochPlan plan(data, res.batch_size, shard_size, res.seed);
    while (plan.next()) {
      const Batch& batch = plan.batch();
      ShardResults shards(batch.num_shards);

      // Static round-robin assignment; the reduction is ordered by shard
      // index, so the assignment never affects the result — which is also
      // what makes recovery exact: a failed worker's shards can re-run
      // anywhere and reduce into the same positions.
      auto run_worker = [&](int w) {
        Replica& rep = replicas[static_cast<std::size_t>(w)];
        for (index_t s = w; s < batch.num_shards; s += p) {
          // Injected worker death: `ddp_worker:die@<epoch>:<worker>` (or
          // kill@N for a hard crash) fires here, before the shard computes.
          fault::maybe_fail("ddp_worker", epoch, w);
          const auto si = static_cast<std::size_t>(s);
          shards.loss[si] = compute_shard(rep, batch, s, shards.grads[si]);
        }
      };
      // Synchronization contract (checked by inspection — there are no
      // locks here for the thread-safety analysis to verify): the
      // worker/driver handshake is pure fork/join, with the fork expressed
      // as pool tasks and TaskGroup::wait() as the join. Each worker writes
      // only its own replica and its own disjoint slots of shards / errors
      // (indexed by shard or worker id), and the driver reads them only
      // after wait() — the join is the sole happens-before edge, so no slot
      // needs a mutex or atomic. Anything cross-worker (profiling counters,
      // the fault harness, workspace pools) is independently thread-safe.
      //
      // Logical worker w keeps its id whatever lane runs it, so the shard
      // assignment s = w, w+p, ... — and with it the die@epoch:worker fault
      // sites — does not depend on the pool width. Workers running as pool
      // tasks execute their fused kernels on the same pool: nested
      // parallel_for composes instead of oversubscribing. On a pool with
      // too few (or zero) background workers the wait()ing driver executes
      // the queued worker bodies itself — execution placement changes,
      // results do not.
      //
      // Worker exceptions (bad_alloc compiling a plan, a failed SPTX_CHECK,
      // an injected ddp_worker fault) are captured at the join so they
      // surface like single-threaded errors instead of terminating the
      // process — or, while the retry budget lasts, get repaired in place.
      std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
      auto guarded = [&](int w) {
        try {
          run_worker(w);
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
        }
      };
      runtime::TaskGroup tg;
      auto& pool = runtime::TaskPool::instance();
      for (int w = 1; w < p; ++w)
        pool.submit(
            tg, [&guarded, w] { guarded(w); }, runtime::TaskClass::kDdp);
      guarded(0);  // the driving thread is worker 0
      tg.wait();

      // Clean abort: flush the (consistent — a batch's update is
      // all-or-nothing) parameters so nothing is lost, then raise the typed
      // error. Never hangs: every worker task has already finished.
      auto abort_run = [&](const std::exception_ptr& cause) {
        std::string why = "unknown error";
        try {
          std::rethrow_exception(cause);
        } catch (const std::exception& e) {
          why = e.what();
        } catch (...) {
        }
        throw_error(ErrorCode::kWorkerFailed,
                    "ddp worker failed and the retry budget is exhausted"
                    " — aborting epoch " +
                        std::to_string(epoch) +
                        flush_abort(res, *replicas[0].model) +
                        "; cause: " + why);
      };

      std::exception_ptr first_error;
      int failed = 0;
      for (int w = 0; w < p; ++w) {
        if (!errors[static_cast<std::size_t>(w)]) continue;
        ++failed;
        if (!first_error) first_error = errors[static_cast<std::size_t>(w)];
        // Scrub the dead worker's half-accumulated gradients — forward/
        // backward never touches parameter VALUES, so a zeroed gradient
        // buffer restores a pristine replica. Completed shards already
        // moved their contribution out (harvest zeroes as it copies).
        for (auto& param : replicas[static_cast<std::size_t>(w)].params)
          param.grad().zero();
      }
      if (failed > 0) {
        result.worker_failures += failed;
        if (retries_left <= 0) abort_run(first_error);
        --retries_left;
        // Re-run the missing shards on the driving thread's replica — even
        // when worker 0 itself died: the fault site sits in run_worker, not
        // in compute_shard, so a re-run cannot trip it again.
        try {
          result.shards_reassigned +=
              run_missing_shards(replicas[0], batch, shards);
        } catch (...) {
          abort_run(std::current_exception());
        }
      }

      // All-reduce into replica 0, then every replica steps with the same
      // reduced gradient.
      log.add_batch(reduce_shards(shards, replicas[0]));
      apply_step(replicas, batch.touched, res.lr);
    }
    log.end_epoch(epoch, *replicas[0].model);
  }

  log.finish(replicas);
  return result;
}

DdpResult train_ddp(
    const std::function<std::unique_ptr<models::KgeModel>(Rng&)>& make_model,
    const kg::TripletSource& data, const DdpConfig& config) {
  const auto snapshot = config::current();  // held across the whole run
  return train_ddp(make_model, data, config, *snapshot);
}

double ScalingModel::predict_seconds(int p, int epochs) const {
  SPTX_CHECK(p >= 1, "workers must be >= 1");
  // Efficiency decays per doubling: eff(p) = parallel_efficiency^log2(p).
  const double doublings = std::log2(static_cast<double>(p));
  const double eff = std::pow(parallel_efficiency, doublings);
  const double compute = single_worker_epoch_s / (p * eff);
  // Ring all-reduce: 2(p−1)/p of the buffer crosses each link; 2(p−1)
  // latency hops.
  const double bw_bytes_per_s = bandwidth_gbps * 1e9 / 8.0;
  const double comm =
      p > 1 ? 2.0 * (p - 1) / p * static_cast<double>(gradient_bytes) /
                      bw_bytes_per_s +
                  2.0 * (p - 1) * latency_us * 1e-6
            : 0.0;
  return epochs * (compute + comm);
}

}  // namespace sptx::distributed
