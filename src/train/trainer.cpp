#include "src/train/trainer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/common/fault.hpp"
#include "src/models/checkpoint.hpp"
#include "src/profiling/counters.hpp"
#include "src/profiling/flops.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/tensor/memory_tracker.hpp"
#include "src/tensor/workspace.hpp"
#include "src/train/batch_plan.hpp"

namespace sptx::train {

namespace {

/// Fisher–Yates with the run's RNG (reproducible given the seed).
void shuffle_positions(std::vector<index_t>& positions, Rng& rng) {
  for (std::size_t i = positions.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(positions[i - 1], positions[j]);
  }
}

/// Per-run state the pipeline drives.
struct TrainLoop {
  models::KgeModel& model;
  const TripletStore& data;
  const TrainConfig& config;
  const std::function<void(int, float)>& on_epoch;

  Rng rng;
  kg::NegativeSampler sampler;
  std::vector<Triplet> negatives;
  std::unique_ptr<nn::Optimizer> opt;
  nn::StepLr step_lr;
  nn::CosineLr cosine_lr;
  TrainResult result;

  float best_loss = std::numeric_limits<float>::infinity();
  int epochs_without_improvement = 0;

  /// Resume state: the first epoch to execute and the permutation the
  /// checkpoint left in flight (consumed by the pipelines' first epoch).
  int start_epoch = 0;
  bool resumed = false;
  std::vector<index_t> restored_positions;

  TrainLoop(models::KgeModel& m, const TripletStore& d, const TrainConfig& c,
            const std::function<void(int, float)>& cb)
      : model(m),
        data(d),
        config(c),
        on_epoch(cb),
        rng(c.seed),
        sampler(d, c.corruption, c.filtered_negatives),
        negatives(sampler.pregenerate_k(d.triplets(), c.negatives_per_positive,
                                        rng)),
        opt(c.use_adagrad
                ? std::unique_ptr<nn::Optimizer>(
                      std::make_unique<nn::Adagrad>(m.params(), c.lr))
                : std::unique_ptr<nn::Optimizer>(
                      std::make_unique<nn::Sgd>(m.params(), c.lr))),
        step_lr(*opt, c.step_lr_every, c.step_lr_gamma),
        cosine_lr(*opt, std::max(c.epochs, 1)) {
    opt->set_weight_decay(c.weight_decay);
    opt->set_grad_clip_norm(c.grad_clip_norm);
    opt->set_index_spaces(m.param_index_spaces());
  }

  void apply_schedule(int epoch) {
    switch (config.schedule) {
      case LrSchedule::kStep:
        step_lr.on_epoch(epoch);
        break;
      case LrSchedule::kCosine:
        cosine_lr.on_epoch(epoch);
        break;
      case LrSchedule::kConstant:
        break;
    }
  }

  /// The row-sparse step's per-batch support (pos ∪ neg), reused so the
  /// steady-state loop allocates nothing; and whether a row-sparse batch has
  /// run yet in this call.
  sparse::RowSupport touched;
  bool row_sparse_started = false;

  /// One forward/backward/step over a batch-loss closure. The step is
  /// row-sparse: the optimizer updates and clears only the rows `plan`
  /// touched, and post_step renormalises only those — after a first batch
  /// that checks the model's index spaces and renormalises every row, so
  /// that every untouched row is already unit length and the result stays
  /// bit-identical to the all-rows form. When the optimizer moves every
  /// row (weight decay, clipping) so does post_step.
  template <typename LossFn>
  float run_batch(const LossFn& batch_loss, const BatchPlan& plan) {
    autograd::Variable loss;
    {
      profiling::ScopedAccum fwd(result.phases.forward_s);
      loss = batch_loss();
    }
    {
      profiling::ScopedAccum bwd(result.phases.backward_s);
      loss.backward();
    }
    {
      profiling::ScopedAccum stp(result.phases.step_s);
      touched.assign_union(plan.pos->row_support(), plan.neg->row_support());
      opt->step(touched);
      if (!row_sparse_started) {
        std::vector<autograd::Variable> params = opt->params();
        nn::verify_support_exhausts_grads(params, model.name());
        row_sparse_started = true;
        model.post_step();
      } else if (opt->row_sparse()) {
        model.post_step(touched);
      } else {
        model.post_step();  // weight decay / clipping moved every row
      }
    }
    return loss.value().at(0, 0);
  }

  /// Periodic-checkpoint cadence: after epoch `epoch` completes.
  bool should_checkpoint(int epoch) const {
    return config.checkpoint_every > 0 &&
           (epoch + 1) % config.checkpoint_every == 0 &&
           epoch + 1 < config.epochs;  // the final state is the result
  }

  /// Write the rotated crash-safe checkpoint for the just-completed epoch.
  /// `positions` is the permutation the NEXT epoch consumes (the pipeline
  /// checkpoints after adopting epoch e+1's inputs).
  void write_checkpoint(int epoch, const std::vector<index_t>& positions) {
    models::TrainCheckpointState st;
    st.next_epoch = epoch + 1;
    st.rng_state = rng.state();
    st.best_loss = best_loss;
    st.epochs_without_improvement = epochs_without_improvement;
    st.optimizer = opt->kind();
    st.optimizer_state = opt->export_state();
    st.negatives = negatives;
    st.positions = positions;
    st.epoch_loss = result.epoch_loss;
    const std::string path =
        models::checkpoint_path_for_epoch(config.checkpoint_path, epoch + 1);
    models::save_train_checkpoint(model, st, path);
    models::prune_checkpoints(config.checkpoint_path,
                              config.checkpoint_keep);
    ++result.checkpoints_written;
    result.last_checkpoint = path;
  }

  /// Restore trajectory state from `source` (an explicit .ep file or a
  /// base path whose newest rotation is used). Parameters load into the
  /// model; everything else overwrites the freshly constructed loop state.
  void restore(const std::string& source) {
    std::string path = source;
    if (!std::filesystem::exists(path)) {
      const auto found = models::latest_checkpoint(source);
      SPTX_CHECK_CODE(found.has_value(), ErrorCode::kIo,
                      "no checkpoint found at '"
                          << source << "' (or rotations " << source
                          << ".ep<N>)"
                          << models::describe_abort_sibling(source));
      path = found->path;
    }
    models::TrainCheckpointState st =
        models::load_train_checkpoint(model, path);
    SPTX_CHECK(st.optimizer == opt->kind(),
               "checkpoint was written with optimizer '"
                   << st.optimizer << "', this run uses '" << opt->kind()
                   << "'");
    opt->import_state(std::move(st.optimizer_state));
    rng.set_state(st.rng_state);
    negatives = std::move(st.negatives);
    restored_positions = std::move(st.positions);
    best_loss = st.best_loss;
    epochs_without_improvement = st.epochs_without_improvement;
    result.epoch_loss = std::move(st.epoch_loss);
    start_epoch = st.next_epoch;
    result.start_epoch = start_epoch;
    resumed = true;
  }

  /// Epoch-end bookkeeping; returns true when early stopping fires.
  bool finish_epoch(int epoch, double loss_sum, index_t batches) {
    const float mean_loss =
        batches > 0 ? static_cast<float>(loss_sum / batches) : 0.0f;
    if (config.record_loss_curve) result.epoch_loss.push_back(mean_loss);
    if (on_epoch) on_epoch(epoch, mean_loss);

    if (config.patience > 0) {
      if (mean_loss < best_loss - config.min_delta) {
        best_loss = mean_loss;
        epochs_without_improvement = 0;
      } else if (++epochs_without_improvement >= config.patience) {
        return true;  // early stop: no progress for `patience` epochs
      }
    }
    return false;
  }
};

/// Staged pipeline: plan-compile → forward/backward → step, with plans
/// cached across epochs or, when the schedule varies, prefetched one epoch
/// ahead.
void run_planned(TrainLoop& loop) {
  const TrainConfig& config = loop.config;
  const TripletStore& data = loop.data;
  const int k = config.negatives_per_positive;
  const index_t m = data.size();

  auto* scoring = dynamic_cast<models::ScoringCoreModel*>(&loop.model);
  // Span-only models (dense baselines, external KgeModels) still get the
  // staged schedule — their plans carry triplets but no incidence.
  sparse::ScoringRecipe recipe =
      scoring ? scoring->recipe() : sparse::ScoringRecipe{};
  recipe.row_support = true;  // the row-sparse step's per-batch support

  const bool variant = config.shuffle || config.resample_negatives;

  sparse::PlanCache cache;
  std::vector<index_t> positions;  // pair permutation; empty = identity
  if (config.shuffle) {
    positions.resize(static_cast<std::size_t>(m));
    for (std::size_t i = 0; i < positions.size(); ++i)
      positions[i] = static_cast<index_t>(i);
  }

  auto make_source = [&](const std::vector<Triplet>& negs,
                         const std::vector<index_t>& perm) {
    EpochBatchSource src;
    src.data = kg::TripletSource(data);
    src.negatives = negs;
    src.positions = perm;
    src.k = k;
    src.batch_size = config.batch_size;
    return src;
  };

  // Stage 1 for the first epoch: the schedule's first compilation. A
  // resumed run adopts the checkpoint's in-flight permutation instead of
  // drawing a fresh shuffle — the interrupted run already consumed that
  // RNG when it derived this epoch's inputs.
  std::vector<BatchPlan> plans;
  if (config.epochs > loop.start_epoch) {
    if (config.shuffle) {
      if (loop.resumed) {
        SPTX_CHECK(loop.restored_positions.size() == positions.size(),
                   "checkpoint has no shuffle permutation — it was written "
                   "by a run with shuffle off");
        positions = loop.restored_positions;
      } else {
        shuffle_positions(positions, loop.rng);
      }
    }
    profiling::ScopedAccum plan_timer(loop.result.plan_compile_s);
    plans = compile_epoch_plans(make_source(loop.negatives, positions), recipe,
                                &cache);
  }

  // The row-sparse step clears only the rows it updates, so the gradients
  // start from zero once here instead of once per batch.
  loop.opt->zero_grad();
  for (int epoch = loop.start_epoch; epoch < config.epochs; ++epoch) {
    loop.apply_schedule(epoch);

    // Stage 1 for epoch e+1: the driving thread derives all RNG-dependent
    // inputs (so the stream does not depend on the pool), then the compile
    // runs as a pool task while this epoch executes.
    std::vector<BatchPlan> next_plans;
    std::vector<Triplet> next_negatives;
    std::vector<index_t> next_positions;
    std::exception_ptr prefetch_error;
    // Declared after everything the task writes: unwinding destroys in
    // reverse order, so the draining destructor runs while those locals
    // are still alive.
    runtime::TaskGroup prefetch_group;
    bool have_next = false;
    if (variant && epoch + 1 < config.epochs) {
      if (config.resample_negatives) {
        next_negatives =
            loop.sampler.pregenerate_k(data.triplets(), k, loop.rng);
      }
      if (config.shuffle) {
        next_positions = positions;
        shuffle_positions(next_positions, loop.rng);
      }
      have_next = true;
      // Exceptions in the task (bad_alloc compiling a large epoch, a
      // failed SPTX_CHECK) are captured and rethrown at the join point. The
      // compile is a kPrefetch task on the shared pool; a zero-worker pool
      // runs it inside the wait below.
      auto compile_next = [&]() {
        try {
          cache.invalidate();
          next_plans = compile_epoch_plans(
              make_source(config.resample_negatives ? next_negatives
                                                    : loop.negatives,
                          config.shuffle ? next_positions : positions),
              recipe, &cache);
        } catch (...) {
          prefetch_error = std::current_exception();
        }
      };
      runtime::TaskPool::instance().submit(prefetch_group,
                                           std::move(compile_next),
                                           runtime::TaskClass::kPrefetch);
    } else if (!variant && epoch > loop.start_epoch) {
      // Epoch-invariant schedule: re-resolve through the cache (all hits —
      // the zero-rebuild property the tests assert).
      profiling::ScopedAccum plan_timer(loop.result.plan_compile_s);
      plans = compile_epoch_plans(make_source(loop.negatives, positions),
                                  recipe, &cache);
    }

    // Stage 2: execute the compiled schedule.
    double loss_sum = 0.0;
    index_t batches = 0;
    for (const BatchPlan& bp : plans) {
      loss_sum += loop.run_batch(
          [&]() {
            return scoring ? scoring->loss(*bp.pos, *bp.neg)
                           : loop.model.loss(bp.pos->triplets(),
                                             bp.neg->triplets());
          },
          bp);
      ++batches;
    }

    const bool stop = loop.finish_epoch(epoch, loss_sum, batches);

    // Stage 3: adopt the prefetched schedule (join waits count as plan
    // time — they are the pipeline bubble prefetch exists to hide).
    // Adoption runs even when early stopping fires so a checkpoint taken
    // here captures the state a resumed run continues from.
    if (prefetch_group.pending() > 0) {
      profiling::ScopedAccum plan_timer(loop.result.plan_compile_s);
      prefetch_group.wait();
    }
    if (prefetch_error) std::rethrow_exception(prefetch_error);
    if (have_next) {
      if (config.resample_negatives)
        loop.negatives = std::move(next_negatives);
      if (config.shuffle) positions = std::move(next_positions);
      plans = std::move(next_plans);
    }
    // Crash safety: checkpoint after the epoch's update is fully applied
    // and epoch e+1's inputs are adopted — the exact cut a resumed run
    // continues from bit-identically.
    if (loop.should_checkpoint(epoch)) loop.write_checkpoint(epoch, positions);
    if (stop) break;
  }

  loop.result.plan_stats = cache.stats();
}

}  // namespace

TrainConfig resolve(const TrainConfig& config, const RuntimeConfig& rc) {
  TrainConfig resolved = config;
  resolved.checkpoint_every = static_cast<int>(
      rc.int_or("SPTX_CHECKPOINT_EVERY", config.checkpoint_every));
  resolved.checkpoint_keep = static_cast<int>(
      rc.int_or("SPTX_CHECKPOINT_KEEP", config.checkpoint_keep));
  return resolved;
}

TrainResult train(models::KgeModel& model, const TripletStore& data,
                  const TrainConfig& config, const RuntimeConfig& rc,
                  const std::function<void(int, float)>& on_epoch) {
  const TrainConfig resolved = resolve(config, rc);
  SPTX_CHECK(!data.empty(), "empty training set");
  SPTX_CHECK(resolved.batch_size > 0 && resolved.epochs >= 0,
             "bad train config");
  SPTX_CHECK(resolved.negatives_per_positive >= 1, "need k >= 1 negatives");
  SPTX_CHECK(resolved.checkpoint_every <= 0 ||
                 !resolved.checkpoint_path.empty(),
             "checkpoint_every > 0 needs a checkpoint_path");
  fault::init_from_config();

  TrainLoop loop(model, data, resolved, on_epoch);
  if (!resolved.resume_from.empty()) loop.restore(resolved.resume_from);

  ScopedPeakWindow memory_window;
  profiling::FlopWindow flop_window;
  profiling::CounterWindow build_window(
      profiling::Counter::kIncidenceBuilds);
  // Recycle every per-batch tensor (SpMM outputs, autograd scratch, score
  // columns) through the Workspace pool: after the first batch warms the
  // free lists, the steady-state loop performs zero heap allocations.
  ScopedWorkspace workspace;
  const auto t_start = profiling::clock::now();

  run_planned(loop);

  loop.result.total_seconds = profiling::seconds_since(t_start);
  loop.result.peak_bytes = memory_window.peak_bytes();
  loop.result.flops = flop_window.elapsed();
  loop.result.incidence_builds = build_window.elapsed();
  return loop.result;
}

TrainResult train(models::KgeModel& model, const TripletStore& data,
                  const TrainConfig& config,
                  const std::function<void(int, float)>& on_epoch) {
  const auto snapshot = config::current();  // held: on_epoch may install()
  return train(model, data, config, *snapshot, on_epoch);
}

}  // namespace sptx::train
