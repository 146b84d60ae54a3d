// perfbench — the repository benchmark.
//
//   perfbench --workload fb15k-transe|yago-transe-spmm
//             --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
//
// One process per run. It generates the graph in-process with
// kg::generate, sets up (graph, model, first epoch, session) several times
// and reports the median as setup_s, then runs the serving phases once as a
// warm-up and R measured rounds. Each round runs every timed phase of the
// workload once — a train epoch, publishes, eval slices, top-k queries and
// rank queries — so every metric samples the whole run instead of one drift
// window of the host. fb15k-transe ends with data-parallel epochs (threads,
// then worker processes) on the same graph: checked in every run, timed as
// the distributed layer in traced runs.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing calls into
// each layer's public functions and by replaying the trainer's own steps
// (see DecomposedTrainer). Output checks run in both modes; each failed
// check, exception or rejected request counts as a failed operation.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/support.hpp"
#include "src/api/engine.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/snapshot.hpp"
#include "src/nn/optim.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/serve/ann_index.hpp"
#include "src/sparse/spmm.hpp"
#include "src/tensor/memory_tracker.hpp"
#include "src/train/batch_plan.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sptx::index_t;
using sptx::Triplet;
using sptx::profiling::Counter;
using sptx::profiling::CounterWindow;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kL3Bytes = 105.0 * kMiB;  // shared L3 of the reference host

// ---------------------------------------------------------------------------
// Workload definitions

struct Workload {
  const char* name;
  const char* profile;      // kg::profile_by_name
  bool ddp = false;         // ends with the data-parallel phase
  bool fused = true;        // false: SPTX_FUSED=off (SpMM + autograd)
  bool ann = false;         // serve top-k through the IVF index
  bool adagrad = false;     // else the paper's SGD
  float lr = 0.0004f;
  bool resample = false;    // fresh negatives (and plans) every epoch
  double round_s = 1.0;     // round length on the reference host, untraced
  double traced_round_s = 1.0;  // the same with the layer replays
  int publishes = 1;        // publishes per round, then
  int serve_blocks = 1;     // serving blocks per round, each with:
  int eval_queries = 0;     //   test triplets in the eval slice (both sides)
  int topk_block = 0;       //   top-k queries
  int rank_block = 0;       //   rank queries
};

const Workload kWorkloads[] = {
    {.name = "fb15k-transe",
     .profile = "FB15K",
     .ddp = true,
     .ann = true,
     .adagrad = true,
     .lr = 0.1f,
     .round_s = 3.5,
     .traced_round_s = 5.5,
     .eval_queries = 150,
     .topk_block = 300,
     .rank_block = 100},
    {.name = "yago-transe-spmm",
     .profile = "YAGO3-10",
     .fused = false,
     .resample = true,
     .round_s = 6.4,
     .traced_round_s = 11.5,
     .publishes = 2,
     .serve_blocks = 2,
     .eval_queries = 6,
     .topk_block = 20,
     .rank_block = 6},
};

constexpr int kSetupReps = 3;  // setups per run; setup_s is their median
constexpr int kTopK = 10;
constexpr int kDdpWorkers = 2;
constexpr index_t kDdpBatch = 32768;  // the single-process trainer's default
constexpr index_t kDdpShard = 16384;  // two shards per batch
constexpr int kDdpRounds = 1;         // data-parallel rounds (traced runs: 2)
constexpr int kDdpTracedRounds = 2;
constexpr int kRecallQueries = 200;
constexpr double kRecallFloor = 0.985;
constexpr int kDeterminismQueries = 8;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// The replayed trainer (traced runs)

/// Drives the trainer's own public steps — NegativeSampler::pregenerate_k,
/// train::compile_epoch_plans, Optimizer::zero_grad, ScoringCoreModel::loss,
/// Variable::backward, Optimizer::step, KgeModel::post_step — in the order
/// train::train runs them, with a span around each. Run on a replica that
/// starts from the same weights as the engine's model, epoch e reproduces
/// Engine::train's epoch-e loss bit for bit (checked every epoch).
class DecomposedTrainer {
 public:
  DecomposedTrainer(sptx::models::KgeModel& model, const sptx::TripletStore& data,
                    const sptx::train::TrainConfig& config)
      : model_(model),
        scoring_(dynamic_cast<sptx::models::ScoringCoreModel*>(&model)),
        data_(data),
        config_(config),
        rng_(config.seed),
        sampler_(data, config.corruption, config.filtered_negatives) {
    if (scoring_ == nullptr) throw std::runtime_error("model has no scoring core");
    if (config.use_adagrad) {
      opt_ = std::make_unique<sptx::nn::Adagrad>(model.params(), config.lr);
    } else {
      opt_ = std::make_unique<sptx::nn::Sgd>(model.params(), config.lr);
    }
    opt_->set_weight_decay(config.weight_decay);
    opt_->set_grad_clip_norm(config.grad_clip_norm);
  }

  struct EpochCounts {
    std::int64_t incidence_builds = 0;
    std::int64_t plan_cache_hits = 0;
    std::int64_t fused_batches = 0;
    std::int64_t parallel_regions = 0;
    std::int64_t inline_loops = 0;
    std::int64_t tasks_stolen = 0;
  };

  /// One epoch; returns the mean batch loss as train::train records it.
  float epoch(int e, Tracer& tracer, EpochCounts& counts) {
    auto epoch_span = tracer.scope("train.decomposed_epoch", e);
    CounterWindow regions(Counter::kRuntimeParallelRegions);
    CounterWindow inlined(Counter::kRuntimeInlineLoops);
    CounterWindow stolen(Counter::kRuntimeTasksStolen);
    if (e == 0 || config_.resample_negatives) {
      auto s = tracer.scope("kg.negatives", e);
      negatives_ = sampler_.pregenerate_k(data_.triplets(),
                                          config_.negatives_per_positive, rng_);
    }
    {
      auto s = tracer.scope("train.plan_compile", e);
      CounterWindow builds(Counter::kIncidenceBuilds);
      CounterWindow hits(Counter::kPlanCacheHits);
      if (e > 0 && config_.resample_negatives) cache_.invalidate();
      sptx::train::EpochBatchSource src;
      src.data = sptx::kg::TripletSource(data_);
      src.negatives = negatives_;
      src.k = config_.negatives_per_positive;
      src.batch_size = config_.batch_size;
      plans_ = sptx::train::compile_epoch_plans(src, scoring_->recipe(), &cache_);
      counts.incidence_builds += builds.elapsed();
      counts.plan_cache_hits += hits.elapsed();
    }
    CounterWindow fused(Counter::kFusedBatches);
    double loss_sum = 0.0;
    std::int64_t batch = 0;
    for (const auto& bp : plans_) {
      {
        auto s = tracer.scope("nn.zero_grad", batch);
        opt_->zero_grad();
      }
      sptx::autograd::Variable loss;
      {
        auto s = tracer.scope("models.forward", batch);
        loss = scoring_->loss(*bp.pos, *bp.neg);
      }
      {
        auto s = tracer.scope("autograd.backward", batch);
        loss.backward();
      }
      {
        auto s = tracer.scope("nn.step", batch);
        opt_->step();
      }
      {
        auto s = tracer.scope("models.post_step", batch);
        model_.post_step();
      }
      loss_sum += loss.value().at(0, 0);
      ++batch;
    }
    counts.fused_batches += fused.elapsed();
    counts.parallel_regions += regions.elapsed();
    counts.inline_loops += inlined.elapsed();
    counts.tasks_stolen += stolen.elapsed();
    return batch > 0 ? static_cast<float>(loss_sum / static_cast<double>(batch))
                     : 0.0f;
  }

  const std::vector<sptx::train::BatchPlan>& plans() const { return plans_; }

 private:
  sptx::models::KgeModel& model_;
  sptx::models::ScoringCoreModel* scoring_;
  const sptx::TripletStore& data_;
  sptx::train::TrainConfig config_;
  sptx::Rng rng_;
  sptx::kg::NegativeSampler sampler_;
  std::unique_ptr<sptx::nn::Optimizer> opt_;
  std::vector<Triplet> negatives_;
  sptx::sparse::PlanCache cache_;
  std::vector<sptx::train::BatchPlan> plans_;
};

/// Computed (not counted — the reference VM has no PMU) traffic of one SpMM
/// pass: CSR structure + gathered rows + written rows.
struct Traffic {
  double bytes = 0.0;
  double flops = 0.0;
};

Traffic spmm_forward_traffic(const sptx::Csr& a, index_t d) {
  const double nnz = static_cast<double>(a.nnz());
  const double structure = static_cast<double>(a.rows + 1) * sizeof(index_t) +
                           nnz * (sizeof(index_t) + sizeof(float));
  return {structure + nnz * static_cast<double>(d) * 4.0 +
              static_cast<double>(a.rows) * static_cast<double>(d) * 4.0,
          2.0 * nnz * static_cast<double>(d)};
}

/// dX += Aᵀ·g: structure + every g row gathered once per nonzero + a
/// read-modify-write of each touched dX row.
Traffic spmm_backward_traffic(const sptx::Csr& a, index_t d) {
  std::vector<bool> touched(static_cast<std::size_t>(a.cols), false);
  double distinct = 0.0;
  for (index_t c : a.col_idx) {
    if (!touched[static_cast<std::size_t>(c)]) {
      touched[static_cast<std::size_t>(c)] = true;
      distinct += 1.0;
    }
  }
  const double nnz = static_cast<double>(a.nnz());
  const double structure = static_cast<double>(a.cols + 1) * sizeof(index_t) +
                           nnz * (sizeof(index_t) + sizeof(float));
  return {structure + nnz * static_cast<double>(d) * 4.0 +
              2.0 * distinct * static_cast<double>(d) * 4.0,
          2.0 * nnz * static_cast<double>(d)};
}

// ---------------------------------------------------------------------------
// Run state

struct Samples {
  std::vector<double> setup_s;
  double train_triples = 0.0;
  double train_s = 0.0;
  std::vector<double> round_train_tps;  // per-round throughput samples
  double eval_queries = 0.0;
  double eval_s = 0.0;
  std::vector<double> round_eval_qps;
  std::vector<double> topk_ms;
  std::vector<double> rank_ms;
  std::vector<double> round_topk_ms;  // per-block mean latencies
  std::vector<double> round_rank_ms;
  std::vector<double> publish_s;

  /// Drop what the warm-up recorded; setup times stay.
  void clear_rounds() {
    Samples kept;
    kept.setup_s = std::move(setup_s);
    *this = std::move(kept);
  }

  double ddp_threads_s = 0.0;
  double ddp_procs_s = 0.0;
  double ddp_single_s = 0.0;
  int ddp_epochs = 0;
  std::int64_t ddp_shards = 0;
  std::int64_t ddp_allreduce_rows = 0;
  std::int64_t ddp_transport_bytes = 0;
  std::int64_t ddp_transport_frames = 0;
};

/// Per-layer accumulators for traced runs (per-epoch values are totals
/// divided by `epochs`).
struct Layers {
  int epochs = 0;               // steady-state (post-setup) epochs replayed
  std::size_t steady_from = 0;  // first span of the steady-state epochs
  double setup_compile_s = 0.0; // epoch-0 plan compilation (inside setup)
  double engine_epoch_s = 0.0;
  double decomposed_epoch_s = 0.0;
  DecomposedTrainer::EpochCounts counts;
  double spmm_fwd_s = 0.0;
  double spmm_bwd_s = 0.0;
  Traffic spmm_fwd;
  Traffic spmm_bwd;
  Traffic step;
  double freeze_s = 0.0;
  int freezes = 0;
  double ann_build_s = 0.0;
  int ann_builds = 0;
  std::vector<double> score_ms;
  std::vector<double> brute_ms;
  std::int64_t ann_queries = 0;
  std::int64_t ann_candidates = 0;
  double recall = 0.0;
};

struct Run {
  Options opt;
  const Workload& w;
  Tracer tracer;
  Ledger ledger;
  Samples s;
  Layers l;
  int rounds = 1;  // measured rounds, after the warm-up
  double measured_s = 0.0;  // wall time of the measured rounds
  std::vector<std::size_t> query_order;  // seeded order over the test split
  std::size_t next_query = 0;
  std::uint64_t graph_fingerprint = 0;
  float first_loss = 0.0f;
  double first_mrr = 0.0;
  double last_mrr = 0.0;
  double worker_rss_mb = 0.0;
  double peak_rss_mb = 0.0;  // read before the data-parallel phase

  explicit Run(const Options& o) : opt(o), w(*o.workload), tracer(o.trace) {}

  // Smoke runs shrink only the YAGO graph: FB15K is small already, and the
  // ANN recall floor is defined on its full-size vocabulary.
  double scale() const { return opt.smoke && !w.ann ? 0.1 : 1.0; }
  int eval_queries() const { return opt.smoke ? 10 : w.eval_queries; }
  int topk_block() const { return opt.smoke ? 10 : w.topk_block; }
  int rank_block() const { return opt.smoke ? 10 : w.rank_block; }
  int setup_reps() const { return opt.smoke ? 1 : kSetupReps; }

  sptx::kg::Dataset generate() {
    auto span = tracer.scope("kg.generate");
    sptx::Rng rng(opt.seed);
    auto profile = sptx::kg::scaled(sptx::kg::profile_by_name(w.profile), scale());
    return sptx::kg::generate(profile, rng);
  }

  sptx::Engine::Options engine_options() const {
    sptx::Engine::Options eo;
    if (!w.fused) eo.config_overrides.push_back({"SPTX_FUSED", "off"});
    return eo;
  }

  sptx::models::ModelSpec spec() const {
    sptx::models::ModelSpec sp;
    sp.family = "TransE";
    sp.config.dim = 128;
    sp.seed = opt.seed * 7919 + 43;
    return sp;
  }

  sptx::serve::SessionOptions session_options(const sptx::kg::Dataset& ds,
                                              bool ann) const {
    sptx::serve::SessionOptions so;
    so.filter = &ds.train;
    so.ann = ann ? sptx::serve::AnnMode::kOn : sptx::serve::AnnMode::kOff;
    return so;
  }

  sptx::train::TrainConfig train_config(int epochs) const {
    sptx::train::TrainConfig tc;
    tc.epochs = epochs;
    tc.lr = w.lr;
    tc.use_adagrad = w.adagrad;
    tc.resample_negatives = w.resample;
    tc.seed = opt.seed * 104729 + 42;
    return tc;
  }

  sptx::distributed::DdpConfig ddp_config(const char* mode, int workers) const {
    sptx::distributed::DdpConfig dc;
    dc.workers = workers;
    dc.epochs = 1;
    dc.batch_size = kDdpBatch;
    dc.shard_size = kDdpShard;
    dc.seed = opt.seed * 104729 + 42;
    dc.mode = mode;
    return dc;
  }

  sptx::eval::EvalConfig eval_config(int queries) const {
    sptx::eval::EvalConfig ec;
    ec.max_queries = queries;
    return ec;
  }

  void seed_queries(const sptx::kg::Dataset& ds) {
    query_order.resize(static_cast<std::size_t>(ds.test.size()));
    for (std::size_t i = 0; i < query_order.size(); ++i) query_order[i] = i;
    sptx::Rng rng(opt.seed ^ 0x51ED5EEDULL);
    for (std::size_t i = query_order.size(); i > 1; --i)
      std::swap(query_order[i - 1], query_order[rng.next_below(i)]);
    next_query = 0;
  }

  /// Next test triplet in the seeded order (wraps around the split).
  const Triplet& query(const sptx::kg::Dataset& ds) {
    const std::size_t i = query_order[next_query++ % query_order.size()];
    return ds.test[static_cast<std::int64_t>(i)];
  }
};

std::uint64_t fingerprint(const sptx::TripletStore& store) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const Triplet& t : store.triplets()) {
    for (std::int64_t v : {static_cast<std::int64_t>(t.head),
                           static_cast<std::int64_t>(t.relation),
                           static_cast<std::int64_t>(t.tail)}) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Round phases shared by every workload

double mean_from(const std::vector<double>& v, std::size_t first) {
  double sum = 0.0;
  for (std::size_t i = first; i < v.size(); ++i) sum += v[i];
  return v.size() > first ? sum / static_cast<double>(v.size() - first) : 0.0;
}

void publish_phase(Run& run, sptx::Engine& engine,
                   const sptx::serve::SessionOptions& so,
                   const sptx::serve::InferenceSession& session) {
  const std::uint64_t before = engine.published_version();
  std::uint64_t version = 0;
  const auto t0 = Clock::now();
  const bool ok = run.ledger.attempt("publish", [&]() {
    auto span = run.tracer.scope("serve.publish");
    version = engine.publish(so);
  });
  const double dt = seconds_since(t0);
  if (!ok) return;
  run.s.publish_s.push_back(dt);
  run.ledger.check(version > before && engine.published_version() == version &&
                       session.snapshot_version() == version,
                   "publish must advance published_version() and reach the session");
  if (!run.opt.trace) return;
  // Layer replays: the freeze and the index build that publish() chains.
  std::shared_ptr<const sptx::models::KgeModel> frozen;
  const auto f0 = Clock::now();
  run.ledger.attempt("freeze", [&]() {
    auto span = run.tracer.scope("models.freeze");
    frozen = engine.freeze();
  });
  run.l.freeze_s += seconds_since(f0);
  ++run.l.freezes;
  if (run.w.ann && frozen) {
    const auto a0 = Clock::now();
    run.ledger.attempt("ann build", [&]() {
      auto span = run.tracer.scope("serve.ann_build");
      auto index = sptx::serve::maybe_build_ann(*frozen, sptx::serve::AnnMode::kOn, 0);
      if (!index) throw std::runtime_error("no ANN index built");
    });
    run.l.ann_build_s += seconds_since(a0);
    ++run.l.ann_builds;
  }
}

void eval_phase(Run& run, sptx::Engine& engine, const sptx::kg::Dataset& ds) {
  sptx::eval::RankingMetrics m;
  const auto t0 = Clock::now();
  const bool ok = run.ledger.attempt("evaluate", [&]() {
    auto span = run.tracer.scope("eval.evaluate");
    m = engine.evaluate(ds, run.eval_config(run.eval_queries()));
  });
  const double dt = seconds_since(t0);
  if (!ok) return;
  run.ledger.check(m.queries > 0 && std::isfinite(m.mrr) && m.mrr > 0.0,
                   "evaluate must rank every query");
  run.s.eval_queries += static_cast<double>(m.queries);
  run.s.eval_s += dt;
  run.s.round_eval_qps.push_back(static_cast<double>(m.queries) / dt);
  run.last_mrr = m.mrr;
}

/// Top-k block: one closed-loop client. Every returned score must equal the
/// session's own score() of the same triplet.
void topk_phase(Run& run, const sptx::serve::InferenceSession& session,
                const sptx::kg::Dataset& ds) {
  const std::size_t first = run.s.topk_ms.size();
  for (int i = 0; i < run.topk_block(); ++i) {
    const Triplet q = run.query(ds);
    std::vector<sptx::serve::Prediction> preds;
    const auto t0 = Clock::now();
    const bool ok = run.ledger.attempt("top_tails", [&]() {
      auto span = run.tracer.scope("serve.topk", i);
      preds = session.top_tails(q.head, q.relation, kTopK);
    });
    const double ms = seconds_since(t0) * 1e3;
    if (!ok) continue;
    run.s.topk_ms.push_back(ms);
    std::vector<Triplet> triples;
    for (const auto& p : preds) triples.push_back({q.head, q.relation, p.entity});
    const std::vector<float> exact = session.score(triples);
    bool same = preds.size() == static_cast<std::size_t>(kTopK);
    for (std::size_t j = 0; same && j < preds.size(); ++j)
      same = exact[j] == preds[j].score;
    run.ledger.check(same, "top-k scores must equal score() of the same triplet");
  }
  run.s.round_topk_ms.push_back(mean_from(run.s.topk_ms, first));
}

void rank_phase(Run& run, const sptx::serve::InferenceSession& session,
                const sptx::kg::Dataset& ds) {
  const std::size_t first = run.s.rank_ms.size();
  for (int i = 0; i < run.rank_block(); ++i) {
    const Triplet q = run.query(ds);
    double rank = 0.0;
    const auto t0 = Clock::now();
    const bool ok = run.ledger.attempt("rank", [&]() {
      auto span = run.tracer.scope("serve.rank", i);
      rank = session.rank(q, true);
    });
    const double ms = seconds_since(t0) * 1e3;
    if (!ok) continue;
    run.s.rank_ms.push_back(ms);
    run.ledger.check(rank >= 1.0 && rank <= static_cast<double>(session.num_entities()),
                     "rank must lie in [1, entities]");
  }
  run.s.round_rank_ms.push_back(mean_from(run.s.rank_ms, first));
}

/// models.score_ms: the model layer's score() over every candidate tail of
/// a few queries (the brute-force unit of work under top-k and rank).
void score_probe(Run& run, const sptx::serve::InferenceSession& session,
                 const sptx::kg::Dataset& ds, int queries) {
  const auto model = session.snapshot()->model;
  for (int i = 0; i < queries; ++i) {
    const Triplet q = run.query(ds);
    std::vector<Triplet> cands(static_cast<std::size_t>(model->num_entities()));
    for (std::size_t e = 0; e < cands.size(); ++e)
      cands[e] = {q.head, q.relation, static_cast<index_t>(e)};
    const auto t0 = Clock::now();
    run.ledger.attempt("score", [&]() {
      auto span = run.tracer.scope("models.score", i);
      if (model->score(cands).size() != cands.size())
        throw std::runtime_error("score() returned the wrong length");
    });
    run.l.score_ms.push_back(seconds_since(t0) * 1e3);
  }
}

/// Rounds' serving phases in their fixed order.
void serve_phases(Run& run, sptx::Engine& engine, const sptx::kg::Dataset& ds,
                  const sptx::serve::SessionOptions& so,
                  const sptx::serve::InferenceSession& session) {
  for (int i = 0; i < run.w.publishes; ++i) publish_phase(run, engine, so, session);
  for (int b = 0; b < run.w.serve_blocks; ++b) {
    eval_phase(run, engine, ds);
    topk_phase(run, session, ds);
    rank_phase(run, session, ds);
  }
  if (run.opt.trace) score_probe(run, session, ds, 4);
}

/// Determinism probe: filtered MRR of the first test triplets. The same
/// seed must give the same value in every setup of every run.
double determinism_mrr(Run& run, sptx::Engine& engine, const sptx::kg::Dataset& ds) {
  return engine.evaluate(ds, run.eval_config(kDeterminismQueries)).mrr;
}

void check_determinism(Run& run, const std::vector<float>& losses,
                       const std::vector<double>& mrrs) {
  for (std::size_t i = 0; i < losses.size(); ++i) {
    run.ledger.check(losses[i] == run.first_loss,
                     "first-epoch loss must repeat exactly across setups");
    run.ledger.check(mrrs[i] == run.first_mrr,
                     "filtered MRR must repeat exactly across setups");
  }
}

/// ANN recall@10 against an ANN-off session over the same weights, on the
/// first kRecallQueries queries of the seeded order. Also times the
/// brute-force path (serve.topk_brute_ms) and the ANN probe counters.
void recall_check(Run& run, sptx::Engine& engine, const sptx::kg::Dataset& ds,
                  const sptx::serve::InferenceSession& ann_session) {
  auto so = run.session_options(ds, false);
  std::shared_ptr<sptx::serve::InferenceSession> exact;
  if (!run.ledger.attempt("open exact session",
                          [&]() { exact = engine.open_session(so); }))
    return;
  const int n = run.opt.smoke ? 20 : kRecallQueries;
  double hits = 0.0;
  for (int i = 0; i < n; ++i) {
    const Triplet q =
        ds.test[static_cast<std::int64_t>(run.query_order[static_cast<std::size_t>(i) %
                                                          run.query_order.size()])];
    std::vector<sptx::serve::Prediction> approx, truth;
    run.ledger.attempt("recall query", [&]() {
      approx = ann_session.top_tails(q.head, q.relation, kTopK);
      const auto t0 = Clock::now();
      {
        auto span = run.tracer.scope("serve.topk_brute", i);
        truth = exact->top_tails(q.head, q.relation, kTopK);
      }
      run.l.brute_ms.push_back(seconds_since(t0) * 1e3);
    });
    std::set<std::int64_t> want;
    for (const auto& p : truth) want.insert(p.entity);
    for (const auto& p : approx) hits += want.count(p.entity) ? 1.0 : 0.0;
  }
  run.l.recall = hits / (static_cast<double>(n) * kTopK);
  run.ledger.check(run.l.recall >= kRecallFloor, "ANN recall@10 below the floor");
}

/// The serving health checks every workload ends with.
void final_session_checks(Run& run, const sptx::serve::InferenceSession& session) {
  const auto st = session.stats();
  run.ledger.check(st.rejected == 0, "no request may be rejected");
  run.l.ann_queries = st.topk_ann;
  run.l.ann_candidates = st.ann_candidates;
  if (run.w.ann)
    run.ledger.check(st.topk_ann > 0 && st.topk_brute == 0,
                     "ANN workload must answer top-k through the index");
}

// ---------------------------------------------------------------------------
// Data-parallel phase (fb15k-transe)

/// Data-parallel epochs on the run's graph from a fresh engine: per round
/// one threads-mode and one procs-mode epoch with kDdpWorkers workers, and
/// in traced runs a one-worker baseline first. Every replica starts from
/// the spec, so the fixed shard decomposition makes all their losses equal
/// and every round repeat the first.
void ddp_phase(Run& run, const sptx::kg::Dataset& ds) {
  sptx::Engine engine(run.engine_options());
  engine.create_model(run.spec(), ds.num_entities(), ds.num_relations());
  const sptx::kg::TripletSource source(ds.train);
  std::optional<float> first_loss;
  const int rounds = run.opt.trace ? kDdpTracedRounds : kDdpRounds;
  for (int round = 0; round < rounds; ++round) {
    sptx::distributed::DdpResult single, threads, procs;
    bool single_ok = true;
    if (run.opt.trace) {
      const auto t0 = Clock::now();
      single_ok = run.ledger.attempt("single-worker epoch", [&]() {
        auto span = run.tracer.scope("distributed.single_epoch", round);
        single = engine.train_ddp(source, run.ddp_config("threads", 1));
      });
      run.s.ddp_single_s += seconds_since(t0);
    }
    auto t0 = Clock::now();
    const bool threads_ok = run.ledger.attempt("threads epoch", [&]() {
      auto span = run.tracer.scope("distributed.threads_epoch", round);
      threads = engine.train_ddp(source, run.ddp_config("threads", kDdpWorkers));
    });
    const double threads_s = seconds_since(t0);
    t0 = Clock::now();
    const bool procs_ok = run.ledger.attempt("procs epoch", [&]() {
      auto span = run.tracer.scope("distributed.procs_epoch", round);
      procs = engine.train_ddp(source, run.ddp_config("procs", kDdpWorkers));
    });
    const double procs_s = seconds_since(t0);
    if (!threads_ok || !procs_ok || !single_ok) continue;
    const float loss = threads.epoch_loss.at(0);
    if (!first_loss) first_loss = loss;
    run.ledger.check(loss == *first_loss, "threads-mode loss must repeat exactly every round");
    run.ledger.check(procs.epoch_loss.at(0) == loss,
                     "procs-mode loss must equal threads-mode loss bit for bit");
    if (run.opt.trace)
      run.ledger.check(single.epoch_loss.at(0) == loss,
                       "one-worker loss must equal the two-worker loss");
    run.ledger.check(procs.workers_lost == 0 && procs.worker_failures == 0 &&
                         threads.worker_failures == 0,
                     "no DDP worker may be lost");
    run.s.ddp_threads_s += threads_s;
    run.s.ddp_procs_s += procs_s;
    ++run.s.ddp_epochs;
    run.s.ddp_shards += threads.shards_executed;
    run.s.ddp_allreduce_rows += threads.allreduce_rows;
    run.s.ddp_transport_bytes += procs.transport_bytes;
    run.s.ddp_transport_frames += procs.transport_frames;
  }
  run.worker_rss_mb = children_peak_rss_mb();
}

// ---------------------------------------------------------------------------
// Single-process training workloads

/// SpMM forward/backward replay over one epoch's compiled plans with the
/// model's current table — the sparse layer timed in isolation (traced
/// yago runs; fb15k-transe trains through the fused kernels instead).
void spmm_replay(Run& run, sptx::models::KgeModel& model,
                 const std::vector<sptx::train::BatchPlan>& plans) {
  const sptx::Matrix& table = model.params()[0].value();
  const index_t d = table.cols();
  sptx::Matrix dx(table.rows(), d);
  for (std::size_t b = 0; b < plans.size(); ++b) {
    for (const auto* batch : {plans[b].pos.get(), plans[b].neg.get()}) {
      const sptx::Csr& a = *batch->hrt();
      sptx::Matrix g(a.rows, d);
      std::fill(g.data(), g.data() + g.size(), 1.0f);
      auto t0 = Clock::now();
      {
        auto span = run.tracer.scope("sparse.spmm_fwd", static_cast<std::int64_t>(b));
        const sptx::Matrix out = sptx::spmm_csr(a, table);
        if (out.rows() != a.rows) throw std::runtime_error("spmm shape");
      }
      run.l.spmm_fwd_s += seconds_since(t0);
      t0 = Clock::now();
      {
        auto span = run.tracer.scope("sparse.spmm_bwd", static_cast<std::int64_t>(b));
        sptx::spmm_csr_transposed_accumulate(a, g, dx);
      }
      run.l.spmm_bwd_s += seconds_since(t0);
      const Traffic f = spmm_forward_traffic(a, d);
      const Traffic k = spmm_backward_traffic(a, d);
      run.l.spmm_fwd.bytes += f.bytes;
      run.l.spmm_fwd.flops += f.flops;
      run.l.spmm_bwd.bytes += k.bytes;
      run.l.spmm_bwd.flops += k.flops;
    }
  }
}

/// Computed traffic of one dense optimizer step over every parameter:
/// SGD reads w, g and writes w; Adagrad also reads and writes its
/// accumulator.
Traffic step_traffic(sptx::models::KgeModel& model, bool adagrad) {
  double elems = 0.0;
  for (const auto& p : model.params())
    elems += static_cast<double>(p.value().rows()) * static_cast<double>(p.value().cols());
  return adagrad ? Traffic{5.0 * 4.0 * elems, 6.0 * elems}
                 : Traffic{3.0 * 4.0 * elems, 2.0 * elems};
}

void run_engine_workload(Run& run) {
  std::vector<float> rep_losses;
  std::vector<double> rep_mrrs;
  // Setups before the measured one: identical work, thrown away after.
  for (int rep = 0; rep + 1 < run.setup_reps(); ++rep) {
    const auto t0 = Clock::now();
    const sptx::kg::Dataset ds = run.generate();
    sptx::Engine engine(run.engine_options());
    engine.create_model(run.spec(), ds.num_entities(), ds.num_relations());
    const auto tr = engine.train(ds.train, run.train_config(1));
    auto session = engine.open_session(run.session_options(ds, run.w.ann));
    run.s.setup_s.push_back(seconds_since(t0));
    rep_losses.push_back(tr.epoch_loss.at(0));
    rep_mrrs.push_back(determinism_mrr(run, engine, ds));
  }

  // The measured setup runs inside the long Engine::train call: its epoch 0
  // compiles the plans and the epoch-0 callback opens the session.
  const auto t0 = Clock::now();
  const sptx::kg::Dataset ds = run.generate();
  run.graph_fingerprint = fingerprint(ds.train);
  run.seed_queries(ds);
  sptx::Engine engine(run.engine_options());
  {
    auto span = run.tracer.scope("models.create");
    engine.create_model(run.spec(), ds.num_entities(), ds.num_relations());
  }
  const auto so = run.session_options(ds, run.w.ann);
  // Epoch 0 is setup, then one epoch per measured round.
  const auto tc = run.train_config(1 + run.rounds);
  const double triples = static_cast<double>(ds.train.size());

  std::unique_ptr<sptx::models::KgeModel> shadow;
  std::unique_ptr<DecomposedTrainer> decomposed;
  if (run.opt.trace) {
    shadow = sptx::models::make_model(run.spec(), ds.num_entities(), ds.num_relations());
    sptx::models::copy_parameters(engine.model(), *shadow);
    decomposed = std::make_unique<DecomposedTrainer>(*shadow, ds.train, tc);
    run.l.step = step_traffic(*shadow, run.w.adagrad);
  }

  std::shared_ptr<sptx::serve::InferenceSession> session;
  auto resume = t0;  // when control last returned to the trainer
  auto measured_from = t0;
  auto on_epoch = [&](int epoch, float loss) {
    const auto enter = Clock::now();
    run.ledger.ok();  // the epoch itself
    try {
      if (epoch == 0) {
        {
          auto span = run.tracer.scope("serve.open_session");
          session = engine.open_session(so);
        }
        run.s.setup_s.push_back(seconds_between(t0, Clock::now()));
        run.first_loss = loss;
        run.first_mrr = determinism_mrr(run, engine, ds);
        check_determinism(run, rep_losses, rep_mrrs);
      } else {
        const double es = seconds_between(resume, enter);
        run.tracer.add("train.engine_epoch", resume, enter, epoch);
        run.s.train_triples += triples;
        run.s.train_s += es;
        run.s.round_train_tps.push_back(triples / es);
        if (run.opt.trace) run.l.engine_epoch_s += es;
      }
      if (decomposed) {
        if (epoch == 1) run.l.steady_from = run.tracer.size();
        DecomposedTrainer::EpochCounts counts;
        const auto d0 = Clock::now();
        const float replayed = decomposed->epoch(epoch, run.tracer, counts);
        const double ds_s = seconds_since(d0);
        run.ledger.check(replayed == loss,
                         "decomposed epoch must reproduce Engine::train's loss");
        if (epoch == 0) {
          run.l.setup_compile_s = run.tracer.total_s("train.plan_compile");
        } else {
          ++run.l.epochs;
          run.l.decomposed_epoch_s += ds_s;
          auto& c = run.l.counts;
          c.incidence_builds += counts.incidence_builds;
          c.plan_cache_hits += counts.plan_cache_hits;
          c.fused_batches += counts.fused_batches;
          c.parallel_regions += counts.parallel_regions;
          c.inline_loops += counts.inline_loops;
          c.tasks_stolen += counts.tasks_stolen;
          if (!run.w.fused) spmm_replay(run, *shadow, decomposed->plans());
        }
      }
      // After setup these serving phases are the warm-up: the first publish
      // pays first-touch page faults for the new snapshot.
      if (session) serve_phases(run, engine, ds, so, *session);
    } catch (const std::exception& e) {
      run.ledger.fail(std::string("epoch callback: ") + e.what());
    }
    resume = Clock::now();
    if (epoch == 0) {
      run.s.clear_rounds();
      measured_from = resume;
    }
    run.measured_s = seconds_between(measured_from, resume);
  };
  run.ledger.attempt("Engine::train", [&]() { engine.train(ds.train, tc, on_epoch); });

  if (session) {
    if (run.w.ann) recall_check(run, engine, ds, *session);
    final_session_checks(run, *session);
  } else {
    run.ledger.fail("no session was opened");
  }
  run.peak_rss_mb = self_peak_rss_mb();
  if (run.w.ddp) ddp_phase(run, ds);
}

// ---------------------------------------------------------------------------
// Output

void metric(JsonObject& m, const std::string& name, double value, const char* unit) {
  m.raw(name, JsonObject().set("value", value).set("unit", unit).str());
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// Interquartile range over the median: the spread the round samples show.
double spread(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return ratio(q[2] - q[0], q[1]);
}

JsonObject end_to_end_metrics(const Run& run, double peak_rss_mb) {
  const Samples& s = run.s;
  JsonObject m;
  metric(m, "setup_s", median(s.setup_s), "s");
  metric(m, "peak_rss_mb", peak_rss_mb, "MB");
  metric(m, "train_triples_per_s", ratio(s.train_triples, s.train_s), "1/s");
  metric(m, "eval_queries_per_s", ratio(s.eval_queries, s.eval_s), "1/s");
  metric(m, "topk_mean_ms", mean(s.topk_ms), "ms");
  metric(m, "topk_p95_ms", percentile(s.topk_ms, 95.0), "ms");
  metric(m, "rank_mean_ms", mean(s.rank_ms), "ms");
  return m;
}

JsonObject per_layer_metrics(const Run& run, double triad, std::int64_t entities) {
  const Layers& l = run.l;
  const Samples& s = run.s;
  const Tracer& t = run.tracer;
  const std::size_t from = l.steady_from;
  const double epochs = l.epochs;
  const double ddp_epochs = s.ddp_epochs;
  auto per_epoch = [&](double v) { return ratio(v, epochs); };
  auto per_ddp = [&](double v) { return ratio(v, ddp_epochs); };
  const double steps = static_cast<double>(t.count("nn.step", from));
  const double step_s = t.total_s("nn.step", from);
  const double cands = ratio(static_cast<double>(l.ann_candidates),
                             static_cast<double>(l.ann_queries));
  JsonObject m;
  metric(m, "kg.generate_s", ratio(t.total_s("kg.generate"),
                                   static_cast<double>(t.count("kg.generate"))), "s");
  metric(m, "kg.negatives_s", per_epoch(t.total_s("kg.negatives", from)), "s");
  metric(m, "train.plan_compile_s", per_epoch(t.total_s("train.plan_compile", from)), "s");
  metric(m, "train.setup_compile_s", l.setup_compile_s, "s");
  metric(m, "train.coverage",
         ratio(t.children_s("train.decomposed_epoch", from), l.engine_epoch_s), "ratio");
  metric(m, "train.trace_overhead",
         l.engine_epoch_s > 0.0 ? l.decomposed_epoch_s / l.engine_epoch_s - 1.0 : 0.0,
         "ratio");
  metric(m, "sparse.incidence_builds", per_epoch(static_cast<double>(l.counts.incidence_builds)), "count");
  metric(m, "sparse.plan_cache_hits", per_epoch(static_cast<double>(l.counts.plan_cache_hits)), "count");
  metric(m, "sparse.spmm_fwd_s", per_epoch(l.spmm_fwd_s), "s");
  metric(m, "sparse.spmm_bwd_s", per_epoch(l.spmm_bwd_s), "s");
  metric(m, "sparse.spmm_gbps_computed",
         ratio(l.spmm_fwd.bytes + l.spmm_bwd.bytes, l.spmm_fwd_s + l.spmm_bwd_s) / 1e9, "GB/s");
  metric(m, "sparse.spmm_fwd_gbps_computed", ratio(l.spmm_fwd.bytes, l.spmm_fwd_s) / 1e9, "GB/s");
  metric(m, "sparse.spmm_bwd_gbps_computed", ratio(l.spmm_bwd.bytes, l.spmm_bwd_s) / 1e9, "GB/s");
  metric(m, "sparse.spmm_gflops_computed",
         ratio(l.spmm_fwd.flops + l.spmm_bwd.flops, l.spmm_fwd_s + l.spmm_bwd_s) / 1e9, "GFLOP/s");
  metric(m, "kernels.fused_batches", per_epoch(static_cast<double>(l.counts.fused_batches)), "count");
  metric(m, "models.forward_s", per_epoch(t.total_s("models.forward", from)), "s");
  metric(m, "models.score_ms", median(l.score_ms), "ms");
  metric(m, "models.freeze_s", ratio(l.freeze_s, l.freezes), "s");
  metric(m, "models.post_step_s", per_epoch(t.total_s("models.post_step", from)), "s");
  metric(m, "autograd.backward_s", per_epoch(t.total_s("autograd.backward", from)), "s");
  metric(m, "nn.zero_grad_s", per_epoch(t.total_s("nn.zero_grad", from)), "s");
  metric(m, "nn.step_s", per_epoch(step_s), "s");
  metric(m, "nn.step_gbps_computed", ratio(steps * l.step.bytes, step_s) / 1e9, "GB/s");
  metric(m, "nn.step_gflops_computed", ratio(steps * l.step.flops, step_s) / 1e9, "GFLOP/s");
  // Rooflines: achieved computed bandwidth as a share of the host's triad.
  metric(m, "sparse.spmm_triad_fraction",
         ratio(ratio(l.spmm_fwd.bytes + l.spmm_bwd.bytes, l.spmm_fwd_s + l.spmm_bwd_s) / 1e9, triad),
         "ratio");
  metric(m, "nn.step_triad_fraction", ratio(ratio(steps * l.step.bytes, step_s) / 1e9, triad),
         "ratio");
  metric(m, "tensor.peak_tracked_mb",
         static_cast<double>(sptx::MemoryTracker::instance().peak()) / kMiB, "MB");
  metric(m, "eval.query_ms", ratio(s.eval_s, s.eval_queries) * 1e3, "ms");
  metric(m, "serve.publish_s", mean(s.publish_s), "s");
  metric(m, "serve.ann_build_s", ratio(l.ann_build_s, l.ann_builds), "s");
  metric(m, "serve.ann_candidates_per_query", cands, "count");
  metric(m, "serve.ann_scan_fraction", ratio(cands, static_cast<double>(entities)), "ratio");
  metric(m, "serve.topk_brute_ms", median(l.brute_ms), "ms");
  metric(m, "serve.ann_recall_at_10", l.recall, "ratio");
  metric(m, "distributed.single_epoch_s", per_ddp(s.ddp_single_s), "s");
  metric(m, "distributed.threads_epoch_s", per_ddp(s.ddp_threads_s), "s");
  metric(m, "distributed.procs_epoch_s", per_ddp(s.ddp_procs_s), "s");
  metric(m, "distributed.shards", per_ddp(static_cast<double>(s.ddp_shards)), "count");
  metric(m, "distributed.allreduce_rows", per_ddp(static_cast<double>(s.ddp_allreduce_rows)), "count");
  metric(m, "distributed.transport_bytes", per_ddp(static_cast<double>(s.ddp_transport_bytes)), "B");
  metric(m, "distributed.transport_frames", per_ddp(static_cast<double>(s.ddp_transport_frames)), "count");
  metric(m, "distributed.worker_rss_mb", run.worker_rss_mb, "MB");
  // Pool activity per replayed training epoch.
  metric(m, "runtime.parallel_regions", per_epoch(static_cast<double>(l.counts.parallel_regions)), "count");
  metric(m, "runtime.inline_loops", per_epoch(static_cast<double>(l.counts.inline_loops)), "count");
  metric(m, "runtime.tasks_stolen", per_epoch(static_cast<double>(l.counts.tasks_stolen)), "count");
  metric(m, "host.triad_gbps", triad, "GB/s");
  metric(m, "host.round_spread", spread(s.round_train_tps), "ratio");
  return m;
}

/// Host and run context: printed on its own line, never a metric.
JsonObject context(const Run& run, double triad, double triad_mib,
                   std::int64_t entities, double peak_rss_mb) {
  const auto tq = quartiles(run.s.round_train_tps);
  const auto eq = quartiles(run.s.round_eval_qps);
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  JsonObject host;
  host.set("pool_width", sptx::runtime::num_threads())
      .set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("git_sha", sha != nullptr ? sha : "unknown")
      .set("triad_gbps", triad)
      .set("triad_array_mib", triad_mib)
      .set("triad_arrays", 3)
      .set("l3_mib", kL3Bytes / kMiB);
  JsonObject rounds;
  rounds.set("count", run.rounds)
      .set("measured_s", run.measured_s)
      .set("train_triples_per_s", run.s.round_train_tps)
      .set("train_quartiles", tq)
      .set("train_spread", spread(run.s.round_train_tps))
      .set("eval_queries_per_s", run.s.round_eval_qps)
      .set("eval_quartiles", eq)
      .set("setup_s", run.s.setup_s)
      .set("topk_samples", static_cast<std::int64_t>(run.s.topk_ms.size()))
      .set("topk_p50_ms", percentile(run.s.topk_ms, 50.0))
      .set("rank_p50_ms", percentile(run.s.rank_ms, 50.0))
      .set("rank_samples", static_cast<std::int64_t>(run.s.rank_ms.size()))
      .set("publish_samples", static_cast<std::int64_t>(run.s.publish_s.size()))
      .set("publish_s", run.s.publish_s)
      .set("topk_ms", run.s.round_topk_ms)
      .set("rank_ms", run.s.round_rank_ms);
  JsonObject checks;
  checks.set("graph_fingerprint", std::to_string(run.graph_fingerprint))
      .set("entities", entities)
      .set("first_epoch_loss", static_cast<double>(run.first_loss))
      .set("first_mrr", run.first_mrr)
      .set("last_mrr", run.last_mrr)
      .set("ann_recall_at_10", run.l.recall)
      .set("ddp_worker_rss_mb", run.worker_rss_mb);
  JsonObject c;
  c.set("workload", run.w.name)
      .set("seed", static_cast<std::int64_t>(run.opt.seed))
      .set("smoke", run.opt.smoke)
      .set("trace", run.opt.trace)
      .set("host", host)
      .set("rounds", rounds)
      .set("checks", checks);
  // A traced run also states its end-to-end values: against an untraced
  // run of the same seed they give the tracing overhead.
  if (run.opt.trace) c.set("end_to_end", end_to_end_metrics(run, peak_rss_mb));
  return c;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads)
        if (name == w.name) opt.workload = &w;
      if (opt.workload == nullptr) return usage("unknown workload");
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage(("bad argument " + a).c_str());
    }
  }
  if (opt.workload == nullptr) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Run run(opt);
  const double round_s = opt.trace ? run.w.traced_round_s : run.w.round_s;
  run.rounds = std::max(opt.smoke ? 1 : 2, static_cast<int>(std::lround(opt.seconds / round_s)));
  std::int64_t entities = 0;
  try {
    run_engine_workload(run);
    entities = static_cast<std::int64_t>(
        sptx::kg::scaled(sptx::kg::profile_by_name(run.w.profile), run.scale()).entities);
  } catch (const std::exception& e) {
    run.ledger.fail(std::string("workload: ") + e.what());
  }
  // Resident-set peak first: the triad below would dominate it.
  const double peak_rss = run.peak_rss_mb > 0.0 ? run.peak_rss_mb : self_peak_rss_mb();
  const double triad_bytes = opt.smoke ? 16.0 * kMiB : 4.0 * kL3Bytes;
  const double triad = triad_gbps(static_cast<std::size_t>(triad_bytes),
                                  sptx::runtime::num_threads(), 3);

  std::printf("%s\n", JsonObject()
                          .set("context", context(run, triad, triad_bytes / kMiB, entities, peak_rss))
                          .str()
                          .c_str());
  if (opt.trace && !opt.trace_out.empty() && !run.tracer.write_chrome(opt.trace_out))
    run.ledger.fail("could not write " + opt.trace_out);
  const JsonObject metrics = opt.trace ? per_layer_metrics(run, triad, entities)
                                       : end_to_end_metrics(run, peak_rss);
  std::printf("%s\n", JsonObject()
                          .set("correct", run.ledger.failed() == 0)
                          .set("attempted", run.ledger.attempted())
                          .set("failed", run.ledger.failed())
                          .set("metrics", metrics)
                          .str()
                          .c_str());
  return 0;
}
