#include "src/distributed/epoch.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/models/checkpoint.hpp"
#include "src/models/snapshot.hpp"
#include "src/nn/optim.hpp"

namespace sptx::distributed {

namespace {

/// Copy the shard's gradient support out of `params` and zero it there, so
/// the replica's accumulation buffers are pristine for its next shard. The
/// extraction is what makes the all-reduce sparse: for an entity table only
/// rows named by the shard's triplets can hold gradient (every backward
/// scatter lands inside the incidence support), so only those rows travel.
/// The rows come from sparse::ParamRows — the same mapping the trainer's
/// row-sparse optimizer step and apply_step use.
void harvest_shard_grads(std::vector<autograd::Variable>& params,
                         const std::vector<models::ParamIndexSpace>& spaces,
                         std::span<const Triplet> pos,
                         std::span<const Triplet> neg, index_t num_entities,
                         index_t num_relations, ShardGrads& out) {
  sparse::RowSupport touched(num_entities, num_relations);
  touched.add(pos);
  touched.add(neg);
  out.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ParamGrad& pg = out[i];
    Matrix& g = params[i].grad();
    pg.present = true;
    const sparse::ParamRows rows(&touched, spaces[i], g.rows());
    if (rows.all()) {
      pg.dense = true;
      pg.values = g;  // deep copy
      g.zero();
      continue;
    }
    pg.rows = rows.rows();
    const index_t cols = g.cols();
    pg.values = Matrix(static_cast<index_t>(pg.rows.size()), cols);
    for (std::size_t k = 0; k < pg.rows.size(); ++k) {
      std::memcpy(pg.values.row(static_cast<index_t>(k)), g.row(pg.rows[k]),
                  static_cast<std::size_t>(cols) * sizeof(float));
      std::memset(g.row(pg.rows[k]), 0,
                  static_cast<std::size_t>(cols) * sizeof(float));
    }
  }
}

}  // namespace

void Replica::init(std::unique_ptr<models::KgeModel> m, bool use_cache) {
  model = std::move(m);
  scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
  params = model->params();
  spaces = model->param_index_spaces();
  if (scoring != nullptr) recipe = scoring->recipe();
  if (use_cache) cache = std::make_unique<sparse::PlanCache>();
  for (auto& param : params) param.grad();
}

void Replica::post_step(const sparse::RowSupport& touched) {
  if (constrained_all) {
    model->post_step(touched);
  } else {
    model->post_step();
    constrained_all = true;
  }
}

index_t checked_shard_size(const DdpConfig& res,
                           const kg::TripletSource& data) {
  SPTX_CHECK(data.valid() && !data.empty(), "empty training set");
  SPTX_CHECK(res.batch_size > 0 && res.epochs >= 0, "bad ddp config");
  SPTX_CHECK(res.checkpoint_every <= 0 || !res.checkpoint_path.empty(),
             "checkpoint_every > 0 needs a checkpoint_path");
  SPTX_CHECK(res.workers >= 1, "need at least one worker");
  if (res.shard_size > 0) return res.shard_size;
  return (res.batch_size + res.workers - 1) / res.workers;
}

EpochPlan::EpochPlan(const kg::TripletSource& data, index_t batch_size,
                     index_t shard_size, std::uint64_t seed)
    : data_(data),
      batch_size_(batch_size),
      // Store-free uniform sampler: works for streaming sources because it
      // only needs the vocabulary sizes (the paper's §5.3 protocol).
      sampler_(data.num_entities(), data.num_relations(),
               kg::CorruptionScheme::kUniform),
      rng_(seed + 1) {
  batch_.shard_size = shard_size;
}

bool EpochPlan::next() {
  if (batch_.ordinal >= 0) {
    begin_ += batch_.count();
    batch_.shard_ordinal_base += batch_.num_shards;
  }
  if (begin_ >= data_.size()) return false;
  ++batch_.ordinal;
  const index_t count = std::min<index_t>(batch_size_, data_.size() - begin_);
  batch_.num_shards = (count + batch_.shard_size - 1) / batch_.shard_size;
  batch_.pos = data_.slice(begin_, count);
  batch_.neg = sampler_.pregenerate(batch_.pos, rng_);
  batch_.touched =
      sparse::RowSupport(data_.num_entities(), data_.num_relations());
  batch_.touched.add(batch_.pos);
  batch_.touched.add(batch_.neg);
  return true;
}

float compute_shard(Replica& rep, const Batch& batch, index_t s,
                    ShardGrads& out) {
  const index_t n_ent = batch.touched.num_entities();
  const index_t n_rel = batch.touched.num_relations();
  const index_t s_begin = s * batch.shard_size;
  const index_t n_s = std::min<index_t>(batch.shard_size,
                                        batch.count() - s_begin);
  const auto pos = batch.pos.subspan(static_cast<std::size_t>(s_begin),
                                     static_cast<std::size_t>(n_s));
  const auto neg = std::span<const Triplet>(batch.neg).subspan(
      static_cast<std::size_t>(s_begin), static_cast<std::size_t>(n_s));
  profiling::count_event(profiling::Counter::kDdpShards);

  autograd::Variable loss;
  if (rep.scoring != nullptr) {
    const sparse::PlanCache::Key key =
        static_cast<sparse::PlanCache::Key>(batch.shard_ordinal_base + s)
        << 1;
    std::shared_ptr<const sparse::CompiledBatch> pos_plan =
        rep.cache != nullptr ? rep.cache->find(key) : nullptr;
    if (!pos_plan) {
      // Zero-copy: the plan views the store's (possibly mmap'd) span; for
      // streaming sources nothing is ever copied.
      pos_plan = sparse::CompiledBatch::compile(pos, rep.recipe, n_ent, n_rel,
                                                /*copy_triplets=*/false);
      if (rep.cache != nullptr) rep.cache->put(key, pos_plan);
    }
    std::shared_ptr<const sparse::CompiledBatch> neg_plan =
        rep.cache != nullptr ? rep.cache->find(key | 1) : nullptr;
    if (!neg_plan) {
      neg_plan = sparse::CompiledBatch::compile_owned(
          std::vector<Triplet>(neg.begin(), neg.end()), rep.recipe, n_ent,
          n_rel);
      if (rep.cache != nullptr) rep.cache->put(key | 1, neg_plan);
    }
    loss = rep.scoring->loss(*pos_plan, *neg_plan);
  } else {
    // Span fallback for models outside the scoring-core family (dense
    // baselines, external KgeModels).
    loss = rep.model->loss(pos, neg);
  }

  const float weight =
      static_cast<float>(n_s) / static_cast<float>(batch.count());
  autograd::scale(loss, weight).backward();
  ShardGrads grads;
  harvest_shard_grads(rep.params, rep.spaces, pos, neg, n_ent, n_rel, grads);
  if (!rep.support_verified) {
    nn::verify_support_exhausts_grads(rep.params, rep.model->name());
    rep.support_verified = true;
  }
  out = std::move(grads);  // delivered only once the shard fully succeeded
  return loss.value().at(0, 0) * weight;
}

index_t run_missing_shards(Replica& rep, const Batch& batch,
                           ShardResults& shards) {
  index_t ran = 0;
  for (index_t s = 0; s < batch.num_shards; ++s) {
    const auto si = static_cast<std::size_t>(s);
    if (!shards.grads[si].empty()) continue;
    shards.loss[si] = compute_shard(rep, batch, s, shards.grads[si]);
    ++ran;
  }
  return ran;
}

float reduce_shards(const ShardResults& shards, Replica& into) {
  const bool vec = simd_enabled();
  for (const ShardGrads& sg : shards.grads) {
    for (std::size_t i = 0; i < into.params.size(); ++i) {
      const ParamGrad& pg = sg[i];
      if (!pg.present) continue;
      Matrix& g0 = into.params[i].grad();
      if (pg.dense) {
        g0.add_(pg.values);
        profiling::count_event(profiling::Counter::kDdpDenseReduces);
        continue;
      }
      for (std::size_t k = 0; k < pg.rows.size(); ++k)
        simd::add(g0.row(pg.rows[k]), pg.values.row(static_cast<index_t>(k)),
                  g0.cols(), vec);
      profiling::count_event(profiling::Counter::kDdpAllReduceRows,
                             static_cast<std::int64_t>(pg.rows.size()));
    }
  }
  float batch_loss = 0.0f;  // shard order: worker-count invariant
  for (float l : shards.loss) batch_loss += l;
  return batch_loss;
}

void apply_step(std::span<Replica> replicas,
                const sparse::RowSupport& touched, float lr) {
  Replica& lead = replicas.front();
  const bool vec = simd_enabled();
  for (std::size_t i = 0; i < lead.params.size(); ++i) {
    Matrix& g0 = lead.params[i].grad();
    const sparse::ParamRows param_rows(&touched, lead.spaces[i], g0.rows());
    if (param_rows.all()) {
      for (Replica& rep : replicas)
        rep.params[i].mutable_value().axpy_(-lr, g0);
      g0.zero();
      continue;
    }
    const std::vector<index_t> rows = param_rows.rows();
    const index_t cols = g0.cols();
    for (Replica& rep : replicas) {
      Matrix& v = rep.params[i].mutable_value();
      for (index_t row : rows)
        simd::axpy(v.row(row), g0.row(row), -lr, cols, vec);
    }
    for (index_t row : rows)
      std::memset(g0.row(row), 0,
                  static_cast<std::size_t>(cols) * sizeof(float));
  }
  for (Replica& rep : replicas) rep.post_step(touched);
}

RunLog::RunLog(const DdpConfig& res, index_t shard_size, DdpResult& result)
    : res_(res), result_(result) {
  result_.workers = res.workers;
  result_.shard_size = shard_size;
}

int RunLog::resume(std::span<Replica> replicas) {
  if (res_.resume_from.empty()) return 0;
  std::string path = res_.resume_from;
  if (!std::filesystem::exists(path)) {
    const auto found = models::latest_checkpoint(res_.resume_from);
    SPTX_CHECK_CODE(found.has_value(), ErrorCode::kIo,
                    "no checkpoint found at '"
                        << res_.resume_from << "' (or rotations "
                        << res_.resume_from << ".ep<N>)"
                        << models::describe_abort_sibling(res_.resume_from));
    path = found->path;
  }
  models::TrainCheckpointState st =
      models::load_train_checkpoint(*replicas[0].model, path);
  for (std::size_t w = 1; w < replicas.size(); ++w)
    models::copy_parameters(*replicas[0].model, *replicas[w].model);
  result_.epoch_loss = std::move(st.epoch_loss);
  result_.start_epoch = st.next_epoch;
  return st.next_epoch;
}

void RunLog::begin_epoch() {
  loss_sum_ = 0.0;
  batches_ = 0;
}

void RunLog::end_epoch(int epoch, models::KgeModel& model) {
  const float mean_loss =
      batches_ > 0 ? static_cast<float>(loss_sum_ / batches_) : 0.0f;
  result_.epoch_loss.push_back(mean_loss);
  if (res_.on_epoch) res_.on_epoch(epoch, mean_loss);

  // Crash safety: rotated atomic checkpoint at the epoch boundary. Only
  // the parameters + the epoch cursor are needed — DDP epochs are
  // self-contained (per-epoch reseeded data RNG, raw SGD with no slots).
  if (res_.checkpoint_every > 0 && (epoch + 1) % res_.checkpoint_every == 0 &&
      epoch + 1 < res_.epochs) {
    models::TrainCheckpointState st;
    st.next_epoch = epoch + 1;
    st.epoch_loss = result_.epoch_loss;
    const std::string path =
        models::checkpoint_path_for_epoch(res_.checkpoint_path, epoch + 1);
    models::save_train_checkpoint(model, st, path);
    models::prune_checkpoints(res_.checkpoint_path, res_.checkpoint_keep);
    ++result_.checkpoints_written;
    result_.last_checkpoint = path;
  }
}

void RunLog::finish(std::span<Replica> replicas) {
  result_.total_seconds = profiling::seconds_since(t0_);
  result_.shards_executed = shards_.elapsed();
  result_.allreduce_rows = rows_.elapsed();
  result_.dense_reduces = dense_.elapsed();
  result_.incidence_builds = builds_.elapsed();
  for (const Replica& rep : replicas) {
    const auto stats =
        rep.cache ? rep.cache->stats() : sparse::PlanCache::Stats{};
    result_.worker_plan_stats.push_back(stats);
    result_.plan_stats.hits += stats.hits;
    result_.plan_stats.misses += stats.misses;
    result_.plan_stats.invalidations += stats.invalidations;
    result_.plan_stats.entries += stats.entries;
  }
  result_.model = std::move(replicas[0].model);
}

std::string flush_abort(const DdpConfig& res, models::KgeModel& model) {
  if (res.checkpoint_path.empty()) return {};
  const std::string flushed = res.checkpoint_path + ".abort";
  models::save_checkpoint(model, flushed);
  return "; parameters flushed to " + flushed;
}

}  // namespace sptx::distributed
