// Runtime (TaskPool) bench: thread scaling and composed train+serve load.
//
// The work-stealing runtime's two claims:
//
//   * Thread scaling — SpMM throughput, fused-epoch wall time, and serve
//     QPS as the pool is resized across 1/2/4/8 lanes. On a multi-core
//     host SpMM should scale near-linearly until memory bandwidth wins;
//     on a 1-core CI VM every width collapses to the caller lane and the
//     rows document overhead, not speedup — `cores` is stamped into the
//     JSON so the reader can tell which regime produced the numbers.
//   * Composition — training and serving in one process draw from one set
//     of pool lanes instead of two threading schemes oversubscribing each
//     other, so a request thread keeps scoring at a sustained QPS while the
//     trainer runs.
//
// Output is one JSON document on stdout — tools/run_benches.sh captures
// it as BENCH_runtime.json for the PR-to-PR perf trajectory.
#include <cstdio>
#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/api/engine.hpp"
#include "src/profiling/timer.hpp"
#include "src/runtime/parallel.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/serve/session.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx {
namespace {

Coo random_coo(index_t rows, index_t cols, index_t nnz, Rng& rng) {
  Coo coo;
  coo.rows = rows;
  coo.cols = cols;
  for (index_t k = 0; k < nnz; ++k) {
    coo.push(static_cast<index_t>(
                 rng.next_below(static_cast<std::uint64_t>(rows))),
             static_cast<index_t>(
                 rng.next_below(static_cast<std::uint64_t>(cols))),
             rng.uniform(-1, 1));
  }
  return coo;
}

struct ScalingRow {
  int width = 1;
  double spmm_gflops = 0.0;    // forward SpMM (spmm_csr_into)
  double fused_epoch_s = 0.0;  // mean epoch, fused TransE training
  double serve_qps = 0.0;      // score() batches per second, one leader
};

std::vector<Triplet> make_queries(const kg::Dataset& ds, std::size_t count,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> out(count);
  for (auto& t : out) {
    t.head = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(ds.num_entities())));
    t.relation = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(ds.num_relations())));
    t.tail = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(ds.num_entities())));
  }
  return out;
}

constexpr std::size_t kQueryBatch = 64;

double measure_serve_qps(serve::InferenceSession& session,
                         const std::vector<Triplet>& stream,
                         std::int64_t requests) {
  const auto t0 = profiling::clock::now();
  for (std::int64_t i = 0; i < requests; ++i) {
    const std::span<const Triplet> batch(
        stream.data() +
            (static_cast<std::size_t>(i) * kQueryBatch) % stream.size(),
        kQueryBatch);
    session.score(batch);
  }
  return static_cast<double>(requests) / profiling::seconds_since(t0);
}

ScalingRow run_width(int width, const Csr& a, const Matrix& x, Matrix& c,
                     int spmm_iters, const kg::Dataset& ds,
                     Engine& engine, const std::vector<Triplet>& stream) {
  runtime::TaskPool::instance().resize(width);
  ScalingRow row;
  row.width = width;

  {  // SpMM: above width 1 the forward runs its pool row blocks.
    const auto t0 = profiling::clock::now();
    for (int i = 0; i < spmm_iters; ++i) spmm_csr_into(a, x, c);
    const double s = profiling::seconds_since(t0);
    row.spmm_gflops = 2.0 * static_cast<double>(a.nnz()) *
                      static_cast<double>(x.cols()) * spmm_iters / s / 1e9;
  }
  {  // Fused epoch: fresh replica per width, same seed → same trajectory.
    Rng rng(7);
    auto model = models::make_sparse_model(
        "TransE", ds.num_entities(), ds.num_relations(),
        [] {
          models::ModelConfig cfg;
          cfg.dim = 64;
          return cfg;
        }(),
        rng);
    train::TrainConfig tc;
    tc.epochs = bench::epochs(2);
    tc.batch_size = 8192;
    const auto r = train::train(*model, ds.train, tc);
    row.fused_epoch_s =
        r.epoch_seconds.empty()
            ? 0.0
            : r.total_seconds / static_cast<double>(r.epoch_seconds.size());
  }
  {  // Serve: one leader thread scoring through the micro-batcher.
    auto session = engine.open_session({});
    row.serve_qps = measure_serve_qps(*session, stream, 400);
  }
  return row;
}

struct ComposedRow {
  double train_s = 0.0;
  double serve_qps = 0.0;  // sustained while training runs
};

/// Train on the main thread while a request thread scores continuously —
/// the oversubscription scenario the shared pool exists for.
ComposedRow run_composed(const kg::Dataset& ds, Engine& engine,
                         const std::vector<Triplet>& stream) {
  ComposedRow row;

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> served{0};
  double serve_seconds = 0.0;
  std::thread server([&] {
    auto session = engine.open_session({});
    const auto t0 = profiling::clock::now();
    std::size_t cursor = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::span<const Triplet> batch(
          stream.data() + (cursor * kQueryBatch) % stream.size(),
          kQueryBatch);
      session->score(batch);
      ++cursor;
      served.fetch_add(1, std::memory_order_relaxed);
    }
    serve_seconds = profiling::seconds_since(t0);
  });

  {
    Rng rng(7);
    auto model = models::make_sparse_model(
        "TransE", ds.num_entities(), ds.num_relations(),
        [] {
          models::ModelConfig cfg;
          cfg.dim = 64;
          return cfg;
        }(),
        rng);
    train::TrainConfig tc;
    tc.epochs = bench::epochs(2);
    tc.batch_size = 8192;
    // Re-run training until the composed phase has lasted long enough for
    // the serve thread to sustain a measurable stream — at bench scale a
    // single run can finish in well under a millisecond.
    const auto t0 = profiling::clock::now();
    int runs = 0;
    do {
      train::train(*model, ds.train, tc);
      ++runs;
    } while (profiling::seconds_since(t0) < 0.5);
    row.train_s = profiling::seconds_since(t0) / runs;
  }

  stop.store(true, std::memory_order_relaxed);
  server.join();
  row.serve_qps = serve_seconds > 0.0
                      ? static_cast<double>(served.load()) / serve_seconds
                      : 0.0;
  return row;
}

}  // namespace
}  // namespace sptx

int main() {
  using namespace sptx;
  bench::warn_if_debug_build();

  Rng rng(42);
  kg::Dataset ds = kg::generate(
      kg::scaled(kg::profile_by_name("FB15K"), bench::scale()), rng);

  // SpMM operand sized like one training batch's incidence slice.
  Rng spmm_rng(9);
  const Csr a = coo_to_csr(random_coo(8192, 8192, 1 << 18, spmm_rng));
  Matrix x(8192, 64);
  x.fill_uniform(spmm_rng, -1, 1);
  Matrix c(8192, 64);
  const int spmm_iters = 10;

  Engine engine;
  ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = 64;
  spec.seed = 7;
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  train::TrainConfig warm;
  warm.epochs = 1;
  warm.batch_size = 8192;
  engine.train(ds.train, warm);
  const auto stream = make_queries(ds, 400 * kQueryBatch, 500);

  const int cores = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("{\n  \"bench\": \"runtime\",\n");
  std::printf("  %s,\n", bench::build_type_json().c_str());
  std::printf("  \"cores\": %d,\n", cores);
  std::printf(
      "  \"caveat\": \"widths beyond `cores` cannot speed anything up — on "
      "a 1-core host every row measures pool overhead at parity, not "
      "scaling, and the composed run degenerates to timeslicing\",\n");
  std::printf("  \"dataset\": {\"entities\": %lld, \"relations\": %lld, "
              "\"train\": %lld},\n",
              static_cast<long long>(ds.num_entities()),
              static_cast<long long>(ds.num_relations()),
              static_cast<long long>(ds.train.size()));
  std::printf("  \"spmm\": {\"rows\": %lld, \"nnz\": %lld, \"dim\": %lld, "
              "\"iters\": %d},\n",
              static_cast<long long>(a.rows),
              static_cast<long long>(a.nnz()), 64LL, spmm_iters);

  std::printf("  \"thread_scaling\": [\n");
  const std::vector<int> widths = {1, 2, 4, 8};
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const ScalingRow row =
        run_width(widths[i], a, x, c, spmm_iters, ds, engine, stream);
    std::printf("    {\"threads\": %d, \"spmm_gflops\": %.3f, "
                "\"fused_epoch_s\": %.6f, \"serve_qps\": %.1f}%s\n",
                row.width, row.spmm_gflops, row.fused_epoch_s, row.serve_qps,
                i + 1 < widths.size() ? "," : "");
    std::fflush(stdout);
  }
  std::printf("  ],\n");

  runtime::TaskPool::instance().resize(cores > 0 ? cores : 1);
  const ComposedRow composed = run_composed(ds, engine, stream);
  std::printf("  \"composed\": {\"train_s\": %.6f, "
              "\"serve_qps_during_training\": %.1f},\n",
              composed.train_s, composed.serve_qps);
  std::printf("  \"pool_stats\": %s\n",
              runtime::TaskPool::instance().stats_json().c_str());
  std::printf("}\n");
  return 0;
}
