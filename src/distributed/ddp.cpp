#include "src/distributed/ddp.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/common/simd.hpp"
#include "src/distributed/shard_grads.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/models/checkpoint.hpp"
#include "src/models/snapshot.hpp"
#include "src/nn/optim.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/row_support.hpp"

namespace sptx::distributed {

// ParamGrad / harvest_shard_grads live in
// shard_grads.hpp — the multi-process executor (proc_ddp.cpp) reuses them,
// and sharing the harvest is what keeps the two paths bit-identical.

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
  SPTX_CHECK(data.valid() && !data.empty(), "empty training set");
  SPTX_CHECK(res.batch_size > 0 && res.epochs >= 0, "bad ddp config");
  SPTX_CHECK(res.checkpoint_every <= 0 || !res.checkpoint_path.empty(),
             "checkpoint_every > 0 needs a checkpoint_path");
  fault::init_from_config();
  const int p = res.workers;
  SPTX_CHECK(p >= 1, "need at least one worker");
  index_t shard_size = res.shard_size;
  if (shard_size <= 0) shard_size = (res.batch_size + p - 1) / p;
  const bool use_cache = res.plan_cache;

  const index_t m = data.size();
  const index_t n_ent = data.num_entities();
  const index_t n_rel = data.num_relations();

  // Identical replicas: every worker constructs from the same seed.
  std::vector<std::unique_ptr<models::KgeModel>> replicas;
  replicas.reserve(static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) {
    Rng rng(config.seed);
    replicas.push_back(make_model(rng));
  }
  std::vector<models::ScoringCoreModel*> scorings(
      static_cast<std::size_t>(p));
  std::vector<std::vector<autograd::Variable>> all_params(
      static_cast<std::size_t>(p));
  for (int w = 0; w < p; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    scorings[wi] = dynamic_cast<models::ScoringCoreModel*>(replicas[wi].get());
    all_params[wi] = replicas[wi]->params();
    SPTX_CHECK(all_params[wi].size() == all_params[0].size(),
               "replica parameter sets diverge");
    // Materialise every gradient buffer (zeroed) so the harvest/reduce
    // cycle never races lazy allocation.
    for (auto& param : all_params[wi]) param.grad();
  }
  const sparse::ScoringRecipe recipe =
      scorings[0] != nullptr ? scorings[0]->recipe() : sparse::ScoringRecipe{};
  const std::vector<models::ParamIndexSpace> spaces =
      replicas[0]->param_index_spaces();
  const std::size_t num_params = all_params[0].size();

  // Store-free uniform sampler: works for streaming sources because it only
  // needs the vocabulary sizes (the paper's §5.3 protocol is uniform).
  kg::NegativeSampler sampler(n_ent, n_rel, kg::CorruptionScheme::kUniform);

  std::vector<std::unique_ptr<sparse::PlanCache>> caches;
  for (int w = 0; w < p; ++w)
    caches.push_back(std::make_unique<sparse::PlanCache>());
  // One support check per worker per run (see verify_support_exhausts_grads).
  std::vector<char> support_verified(static_cast<std::size_t>(p), 0);
  // Whether post_step has run over every row yet in this call.
  bool constrained_all = false;

  DdpResult result;
  result.workers = p;
  result.shard_size = shard_size;

  // Resume: restore replica 0 from the checkpoint, broadcast to the other
  // replicas, and skip the completed epochs. DDP epochs are self-contained
  // (data_rng reseeds from config.seed + 1 every epoch), so parameters +
  // epoch cursor reproduce the uninterrupted trajectory exactly.
  int start_epoch = 0;
  if (!res.resume_from.empty()) {
    std::string path = res.resume_from;
    if (!std::filesystem::exists(path)) {
      const auto found = models::latest_checkpoint(res.resume_from);
      SPTX_CHECK_CODE(found.has_value(), ErrorCode::kIo,
                      "no checkpoint found at '"
                          << res.resume_from << "' (or rotations "
                          << res.resume_from << ".ep<N>)"
                          << models::describe_abort_sibling(res.resume_from));
      path = found->path;
    }
    models::TrainCheckpointState st =
        models::load_train_checkpoint(*replicas[0], path);
    for (int w = 1; w < p; ++w)
      models::copy_parameters(*replicas[0],
                              *replicas[static_cast<std::size_t>(w)]);
    result.epoch_loss = std::move(st.epoch_loss);
    start_epoch = st.next_epoch;
    result.start_epoch = start_epoch;
  }
  // Worker-failure recovery budget for the whole run.
  int retries_left = res.max_worker_retries;
  const profiling::CounterWindow shards_window(
      profiling::Counter::kDdpShards);
  const profiling::CounterWindow rows_window(
      profiling::Counter::kDdpAllReduceRows);
  const profiling::CounterWindow dense_window(
      profiling::Counter::kDdpDenseReduces);
  const profiling::CounterWindow builds_window(
      profiling::Counter::kIncidenceBuilds);
  const auto t0 = profiling::clock::now();

  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    const auto epoch_start = profiling::clock::now();
    // Re-seeding per epoch pins the negatives to the epoch-0 stream — the
    // paper's pregenerate-once protocol without an O(dataset) buffer, and
    // the property that lets cached shard plans serve every later epoch.
    Rng data_rng(config.seed + 1);
    double loss_sum = 0.0;
    index_t batches = 0;
    index_t shard_ordinal_base = 0;  // global shard index, epoch-invariant

    for (index_t begin = 0; begin < m; begin += config.batch_size) {
      const index_t count = std::min<index_t>(config.batch_size, m - begin);
      const index_t num_shards = (count + shard_size - 1) / shard_size;
      const std::span<const Triplet> pos_all = data.slice(begin, count);
      const std::vector<Triplet> negatives =
          sampler.pregenerate(pos_all, data_rng);
      const std::span<const Triplet> neg_all(negatives);

      std::vector<ShardGrads> shard_grads(
          static_cast<std::size_t>(num_shards));
      std::vector<float> shard_loss(static_cast<std::size_t>(num_shards),
                                    0.0f);

      // Workers: forward + backward per shard through the compiled-batch
      // pipeline, harvesting each shard's sparse gradient as they go.
      // Static round-robin assignment; the reduction below is ordered by
      // shard index, so the assignment never affects the result — which is
      // also what makes recovery exact: a failed worker's shards can re-run
      // anywhere and reduce into the same positions.
      auto run_shard = [&](int w, index_t s) {
        const auto wi = static_cast<std::size_t>(w);
        // Injected worker death: `ddp_worker:die@<epoch>:<worker>` (or
        // kill@N for a hard crash) fires here, before the shard computes.
        fault::maybe_fail("ddp_worker", epoch, w);
        sparse::PlanCache* cache = use_cache ? caches[wi].get() : nullptr;
        {
          const index_t s_begin = s * shard_size;
          const index_t n_s = std::min<index_t>(shard_size, count - s_begin);
          const std::span<const Triplet> pos =
              pos_all.subspan(static_cast<std::size_t>(s_begin),
                              static_cast<std::size_t>(n_s));
          const std::span<const Triplet> neg =
              neg_all.subspan(static_cast<std::size_t>(s_begin),
                              static_cast<std::size_t>(n_s));
          profiling::count_event(profiling::Counter::kDdpShards);

          autograd::Variable loss;
          if (scorings[wi] != nullptr) {
            const sparse::PlanCache::Key key =
                static_cast<sparse::PlanCache::Key>(shard_ordinal_base + s)
                << 1;
            std::shared_ptr<const sparse::CompiledBatch> pos_plan =
                cache != nullptr ? cache->find(key) : nullptr;
            if (!pos_plan) {
              // Zero-copy: the plan views the store's (possibly mmap'd)
              // span; for streaming sources nothing is ever copied.
              pos_plan = sparse::CompiledBatch::compile(
                  pos, recipe, n_ent, n_rel, /*copy_triplets=*/false);
              if (cache != nullptr) cache->put(key, pos_plan);
            }
            std::shared_ptr<const sparse::CompiledBatch> neg_plan =
                cache != nullptr ? cache->find(key | 1) : nullptr;
            if (!neg_plan) {
              neg_plan = sparse::CompiledBatch::compile_owned(
                  std::vector<Triplet>(neg.begin(), neg.end()), recipe, n_ent,
                  n_rel);
              if (cache != nullptr) cache->put(key | 1, neg_plan);
            }
            loss = scorings[wi]->loss(*pos_plan, *neg_plan);
          } else {
            // Span fallback for models outside the scoring-core family
            // (dense baselines, external KgeModels).
            loss = replicas[wi]->loss(pos, neg);
          }

          // Scale by the shard's true share of the batch BEFORE backward:
          // the reduced gradient is then exactly the full-batch-mean
          // gradient even when shard_size does not divide the batch.
          const float weight =
              static_cast<float>(n_s) / static_cast<float>(count);
          autograd::scale(loss, weight).backward();
          shard_loss[static_cast<std::size_t>(s)] =
              loss.value().at(0, 0) * weight;
          harvest_shard_grads(all_params[wi], spaces, pos, neg, n_ent, n_rel,
                              shard_grads[static_cast<std::size_t>(s)]);
          if (!support_verified[wi]) {
            nn::verify_support_exhausts_grads(all_params[wi],
                                              replicas[wi]->name());
            support_verified[wi] = 1;
          }
        }
      };
      auto run_worker = [&](int w) {
        for (index_t s = w; s < num_shards; s += p) run_shard(w, s);
      };
      {
        // Synchronization contract (checked by inspection — there are no
        // locks here for the thread-safety analysis to verify): the
        // worker/driver handshake is pure fork/join, with the fork
        // expressed as pool tasks and TaskGroup::wait() as the join. Each
        // worker writes only its own disjoint slots of shard_grads /
        // shard_loss / errors / support_verified (indexed by shard or
        // worker id), and the driver reads them only after wait() — the
        // join is the sole happens-before edge, so no slot needs a mutex
        // or atomic. Anything cross-worker (profiling counters, the fault
        // harness, workspace pools) is independently thread-safe.
        //
        // Logical worker w keeps its id whatever lane runs it, so the
        // shard assignment s = w, w+p, ... — and with it the
        // die@epoch:worker fault sites and the shard-index-ordered
        // reduction — does not depend on the pool width. Workers running
        // as pool tasks execute their fused kernels on the same pool:
        // nested parallel_for composes instead of oversubscribing. On a
        // pool with too few (or zero) background workers the wait()ing
        // driver executes the queued worker bodies itself — execution
        // placement changes, results do not.
        //
        // Worker exceptions (bad_alloc compiling a plan, a failed
        // SPTX_CHECK, an injected ddp_worker fault) are captured at the
        // join so they surface like single-threaded errors instead of
        // terminating the process — or, while the retry budget lasts, get
        // repaired in place.
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
        // all-or-nothing) parameters so nothing is lost, then raise the
        // typed error. Never hangs: every worker task has already finished.
        auto abort_run = [&](const std::exception_ptr& cause) {
          std::string why = "unknown error";
          try {
            std::rethrow_exception(cause);
          } catch (const std::exception& e) {
            why = e.what();
          } catch (...) {
          }
          std::string flushed;
          if (!res.checkpoint_path.empty()) {
            flushed = res.checkpoint_path + ".abort";
            models::save_checkpoint(*replicas[0], flushed);
          }
          throw_error(ErrorCode::kWorkerFailed,
                      "ddp worker failed and the retry budget is exhausted"
                      " — aborting epoch " +
                          std::to_string(epoch) +
                          (flushed.empty()
                               ? std::string()
                               : "; parameters flushed to " + flushed) +
                          "; cause: " + why);
        };

        std::exception_ptr first_error;
        int failed = 0;
        for (int w = 0; w < p; ++w) {
          if (!errors[static_cast<std::size_t>(w)]) continue;
          ++failed;
          if (!first_error) first_error = errors[static_cast<std::size_t>(w)];
        }
        if (failed > 0) {
          result.worker_failures += failed;
          if (retries_left <= 0) abort_run(first_error);
          --retries_left;
          // Scrub the dead workers' half-accumulated gradients — forward/
          // backward never touches parameter VALUES, so a zeroed gradient
          // buffer restores a pristine replica. Completed shards already
          // moved their contribution out (harvest zeroes as it copies).
          for (int w = 0; w < p; ++w) {
            if (!errors[static_cast<std::size_t>(w)]) continue;
            for (auto& param : all_params[static_cast<std::size_t>(w)])
              param.grad().zero();
          }
          // Re-run the missing shards on the driving thread's replica.
          // Reduction is shard-index-ordered, so the epoch's result is
          // bit-identical to an undisturbed run.
          try {
            for (index_t s = 0; s < num_shards; ++s) {
              if (!shard_grads[static_cast<std::size_t>(s)].empty()) continue;
              run_shard(0, s);
              ++result.shards_reassigned;
            }
          } catch (...) {
            abort_run(std::current_exception());
          }
        }
      }

      // All-reduce, sparse-aware and deterministically ordered: shard
      // contributions accumulate into replica 0's (all-zero) gradient
      // buffers in shard-index order, touched rows only — bit-identical
      // for any worker count.
      for (index_t s = 0; s < num_shards; ++s) {
        ShardGrads& sg = shard_grads[static_cast<std::size_t>(s)];
        for (std::size_t i = 0; i < num_params; ++i) {
          ParamGrad& pg = sg[i];
          if (!pg.present) continue;
          Matrix& g0 = all_params[0][i].grad();
          if (pg.dense) {
            g0.add_(pg.values);
            profiling::count_event(profiling::Counter::kDdpDenseReduces);
          } else {
            const index_t cols = g0.cols();
            const bool vec = simd_enabled();
            for (std::size_t k = 0; k < pg.rows.size(); ++k)
              simd::add(g0.row(pg.rows[k]),
                        pg.values.row(static_cast<index_t>(k)), cols, vec);
            profiling::count_event(
                profiling::Counter::kDdpAllReduceRows,
                static_cast<std::int64_t>(pg.rows.size()));
          }
        }
      }

      // Broadcast the SGD update: every replica steps with the same reduced
      // gradient over the batch's touched rows, then the accumulator is
      // re-zeroed on the same support so the next batch starts clean.
      sparse::RowSupport touched(n_ent, n_rel);
      touched.add(pos_all);
      touched.add(neg_all);
      for (std::size_t i = 0; i < num_params; ++i) {
        Matrix& g0 = all_params[0][i].grad();
        const sparse::ParamRows param_rows(&touched, spaces[i], g0.rows());
        if (param_rows.all()) {
          for (int w = 0; w < p; ++w)
            all_params[static_cast<std::size_t>(w)][i]
                .mutable_value()
                .axpy_(-config.lr, g0);
          g0.zero();
          continue;
        }
        const std::vector<index_t> rows = param_rows.rows();
        const index_t cols = g0.cols();
        const bool vec = simd_enabled();
        for (int w = 0; w < p; ++w) {
          Matrix& v = all_params[static_cast<std::size_t>(w)][i]
                          .mutable_value();
          for (index_t row : rows)
            simd::axpy(v.row(row), g0.row(row), -config.lr, cols, vec);
        }
        for (index_t row : rows)
          std::memset(g0.row(row), 0,
                      static_cast<std::size_t>(cols) * sizeof(float));
      }
      // Renormalise the touched rows — every row on the run's first batch
      // (KgeModel::post_step), as the single-process trainer does.
      for (int w = 0; w < p; ++w) {
        models::KgeModel& replica = *replicas[static_cast<std::size_t>(w)];
        if (constrained_all) {
          replica.post_step(touched);
        } else {
          replica.post_step();
        }
      }
      constrained_all = true;

      float batch_loss = 0.0f;  // shard order: worker-count invariant
      for (float l : shard_loss) batch_loss += l;
      loss_sum += batch_loss;
      ++batches;
      shard_ordinal_base += num_shards;
    }

    const float mean_loss =
        batches > 0 ? static_cast<float>(loss_sum / batches) : 0.0f;
    result.epoch_loss.push_back(mean_loss);
    result.epoch_seconds.push_back(profiling::seconds_since(epoch_start));
    if (config.on_epoch) config.on_epoch(epoch, mean_loss);

    // Crash safety: rotated atomic checkpoint at the epoch boundary. Only
    // replica-0 parameters + the epoch cursor are needed — DDP epochs are
    // self-contained (per-epoch reseeded data RNG, raw SGD with no slots).
    if (res.checkpoint_every > 0 &&
        (epoch + 1) % res.checkpoint_every == 0 &&
        epoch + 1 < config.epochs) {
      models::TrainCheckpointState st;
      st.next_epoch = epoch + 1;
      st.epoch_loss = result.epoch_loss;
      const std::string path =
          models::checkpoint_path_for_epoch(res.checkpoint_path, epoch + 1);
      models::save_train_checkpoint(*replicas[0], st, path);
      models::prune_checkpoints(res.checkpoint_path, res.checkpoint_keep);
      ++result.checkpoints_written;
      result.last_checkpoint = path;
    }
  }

  result.total_seconds = profiling::seconds_since(t0);
  result.shards_executed = shards_window.elapsed();
  result.allreduce_rows = rows_window.elapsed();
  result.dense_reduces = dense_window.elapsed();
  result.incidence_builds = builds_window.elapsed();
  for (const auto& cache : caches) {
    const auto stats = cache->stats();
    result.worker_plan_stats.push_back(stats);
    result.plan_stats.hits += stats.hits;
    result.plan_stats.misses += stats.misses;
    result.plan_stats.invalidations += stats.invalidations;
    result.plan_stats.entries += stats.entries;
  }
  result.model = std::move(replicas[0]);
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
