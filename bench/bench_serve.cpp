// Serving-layer throughput bench: queries/sec through a shared
// InferenceSession, single-thread vs multi-thread, with and without
// micro-batch coalescing.
//
// The serving claim is twofold: (1) the session is thread-safe and scales
// with concurrent callers, and (2) under concurrency the micro-batching
// queue coalesces small score queries into fewer, larger scoring calls,
// buying back per-call overhead. This bench drives a fixed per-thread query
// load (small triple-scoring batches, the traffic micro-batching targets)
// through four configurations — {1 thread, N threads} × {coalescing off,
// on} — and reports QPS plus the coalescing counters that explain it.
// Top-k candidate queries are measured separately (they bypass the
// micro-batcher and scan every entity).
//
// Two further sections cover the clustered-ANN serving claims: an
// entity-count sweep (10k/100k/1M) comparing brute-force top-k against the
// IVF probe + exact re-rank path (throughput, recall@10, candidates
// scanned), and a zero-downtime hot-swap drill measuring the mid-publish
// p99 against steady state with Engine::publish() flipping snapshots under
// live readers.
//
// Output is one JSON document on stdout — tools/run_benches.sh captures it
// as BENCH_serve.json for the PR-to-PR perf trajectory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/api/engine.hpp"
#include "src/profiling/timer.hpp"

namespace sptx {
namespace {

struct ServeRow {
  int threads = 0;
  bool micro_batch = false;
  int window_us = 0;
  double seconds = 0.0;
  std::int64_t requests = 0;
  std::int64_t triplets = 0;
  std::int64_t executions = 0;   // underlying score() calls
  std::int64_t coalesced = 0;    // requests that shared an execution
  double qps = 0.0;
  double topk_qps = 0.0;
};

constexpr std::size_t kQueryBatch = 8;     // triplets per score request
constexpr std::int64_t kRequests = 4000;   // score requests per thread
constexpr std::int64_t kTopK = 200;        // top-k queries per thread

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

ServeRow run_load(Engine& engine, const kg::Dataset& ds, int threads,
                  bool micro_batch, int window_us) {
  serve::SessionOptions so;
  so.micro_batch = micro_batch;
  so.window_us = window_us;
  auto session = engine.open_session(so);

  // Pre-generated per-thread query streams keep RNG out of the timed loop.
  std::vector<std::vector<Triplet>> streams;
  streams.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w)
    streams.push_back(make_queries(
        ds, static_cast<std::size_t>(kRequests) * kQueryBatch,
        static_cast<std::uint64_t>(500 + w)));

  const auto t0 = profiling::clock::now();
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      const auto& stream = streams[static_cast<std::size_t>(w)];
      for (std::int64_t i = 0; i < kRequests; ++i) {
        const std::span<const Triplet> batch(
            stream.data() + static_cast<std::size_t>(i) * kQueryBatch,
            kQueryBatch);
        session->score(batch);
      }
    });
  }
  for (auto& t : pool) t.join();
  const double score_seconds = profiling::seconds_since(t0);

  // Top-k pass: anchors cycle a small set, the way repeated production
  // queries would.
  const auto t1 = profiling::clock::now();
  std::vector<std::thread> topk_pool;
  for (int w = 0; w < threads; ++w) {
    topk_pool.emplace_back([&, w] {
      Rng rng(static_cast<std::uint64_t>(900 + w));
      for (std::int64_t i = 0; i < kTopK; ++i) {
        const auto h = static_cast<std::int64_t>(rng.next_below(16));
        const auto r = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(ds.num_relations())));
        session->top_tails(h % ds.num_entities(), r, 10);
      }
    });
  }
  for (auto& t : topk_pool) t.join();
  const double topk_seconds = profiling::seconds_since(t1);

  const auto stats = session->stats();
  ServeRow row;
  row.threads = threads;
  row.micro_batch = micro_batch;
  row.window_us = window_us;
  row.seconds = score_seconds;
  row.requests = stats.batcher.requests;
  row.triplets = stats.batcher.triplets;
  row.executions = stats.batcher.batches_executed;
  row.coalesced = stats.batcher.coalesced_requests;
  row.qps = static_cast<double>(kRequests) * threads / score_seconds;
  row.topk_qps = static_cast<double>(kTopK) * threads / topk_seconds;
  return row;
}

// ---- graceful degradation ---------------------------------------------------
// Oversubscribe the session (more caller threads than execution slots) and
// measure what admission control buys: with a bounded queue and per-request
// deadlines the session sheds load with typed rejections and the ACCEPTED
// requests keep a bounded p99; without bounds every request is accepted and
// the tail latency is whatever the backlog makes it.

struct DegradedRow {
  const char* posture = "";
  std::int64_t accepted = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t rejected_deadline = 0;
  double qps = 0.0;        // accepted requests / wall seconds
  // Accepted-request latency percentiles in MICROSECONDS. Individual
  // requests complete in tens of microseconds, so millisecond-granularity
  // percentiles truncated to 0.00 in the report; µs keeps the resolution.
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// p-th percentile (nearest-rank on the sorted copy) of latencies in µs.
double percentile_us(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

DegradedRow run_degraded(Engine& engine, const kg::Dataset& ds,
                         bool bounded) {
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 400;
  constexpr std::int64_t kDeadlineUs = 50'000;

  serve::SessionOptions so;
  so.micro_batch = true;
  so.max_batch = 64;
  if (bounded) {
    so.queue_limit = 256;           // triplets admitted to the queue
    so.deadline_us = kDeadlineUs;   // default per-request deadline
    so.max_concurrency = 2;         // execution slots — forces a backlog
  }
  auto session = engine.open_session(so);

  std::vector<std::vector<Triplet>> streams;
  for (int w = 0; w < kThreads; ++w)
    streams.push_back(make_queries(
        ds, static_cast<std::size_t>(kPerThread) * kQueryBatch,
        static_cast<std::uint64_t>(700 + w)));

  std::mutex mu;
  std::vector<double> accepted_us;
  std::atomic<std::int64_t> queue_full{0}, deadline{0};

  const auto t0 = profiling::clock::now();
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      const auto& stream = streams[static_cast<std::size_t>(w)];
      std::vector<double> local;
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        const std::span<const Triplet> batch(
            stream.data() + static_cast<std::size_t>(i) * kQueryBatch,
            kQueryBatch);
        const auto q0 = profiling::clock::now();
        const auto result = session->try_score(batch);
        switch (result.rejected) {
          case serve::RejectReason::kNone:
            local.push_back(profiling::seconds_since(q0) * 1e6);
            break;
          case serve::RejectReason::kQueueFull:
            queue_full.fetch_add(1, std::memory_order_relaxed);
            break;
          case serve::RejectReason::kDeadline:
            deadline.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
      const std::lock_guard<std::mutex> lock(mu);
      accepted_us.insert(accepted_us.end(), local.begin(), local.end());
    });
  }
  for (auto& t : pool) t.join();
  const double seconds = profiling::seconds_since(t0);

  DegradedRow row;
  row.posture = bounded ? "bounded" : "unbounded";
  row.accepted = static_cast<std::int64_t>(accepted_us.size());
  row.rejected_queue_full = queue_full.load();
  row.rejected_deadline = deadline.load();
  row.qps = static_cast<double>(row.accepted) / seconds;
  std::sort(accepted_us.begin(), accepted_us.end());
  row.p50_us = percentile_us(accepted_us, 0.50);
  row.p99_us = percentile_us(accepted_us, 0.99);
  return row;
}

// ---- clustered ANN sweep ----------------------------------------------------
// Entity-count sweep over the IVF top-k path: at each vocabulary size a
// frozen TransE model with clustered (Zipf-skewed mixture) embeddings is
// served twice — brute-force scan vs ANN probe + exact re-rank — and the
// bench reports the throughput ratio, recall@10 against the brute-force
// ground truth, and the mean number of candidates the ANN path re-ranked.

struct AnnSweepRow {
  index_t entities = 0;
  index_t k_lists = 0;
  int nprobe = 0;
  double build_s = 0.0;
  double brute_topk_qps = 0.0;
  double ann_topk_qps = 0.0;
  double speedup = 0.0;
  double recall_at_10 = 0.0;
  double mean_candidates = 0.0;
};

AnnSweepRow run_ann_sweep(index_t n) {
  constexpr index_t kDim = 32;
  constexpr index_t kRelations = 8;

  // Zipf-skewed Gaussian mixture: cluster id = C·u² concentrates mass in
  // the low-id clusters (the head of the skew) while every cluster keeps
  // some members; entities are centers + small isotropic noise — the
  // structure an IVF index exploits and real embedding tables exhibit.
  ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = kDim;
  spec.config.normalize_entities = false;
  spec.seed = 11;
  auto model = models::make_model(spec, n, kRelations);
  {
    Matrix& table = model->params()[0].mutable_value();
    Rng rng(static_cast<std::uint64_t>(2000 + n));
    const auto n_clusters = static_cast<index_t>(
        std::max(16.0, std::sqrt(static_cast<double>(n)) / 2.0));
    Matrix centers(n_clusters, kDim);
    for (index_t c = 0; c < n_clusters; ++c)
      for (index_t j = 0; j < kDim; ++j) centers.at(c, j) = rng.normal();
    for (index_t e = 0; e < n; ++e) {
      const float u = rng.next_float();
      const auto c = static_cast<index_t>(
          static_cast<float>(n_clusters) * u * u);
      const float* center = centers.row(std::min(c, n_clusters - 1));
      float* row = table.row(e);
      for (index_t j = 0; j < kDim; ++j)
        row[j] = center[j] + 0.15f * rng.normal();
    }
    for (index_t r = 0; r < kRelations; ++r) {
      float* row = table.row(n + r);
      for (index_t j = 0; j < kDim; ++j) row[j] = 0.1f * rng.normal();
    }
  }
  std::shared_ptr<const models::KgeModel> frozen(std::move(model));

  // Both sessions serve the SAME frozen weights; only the candidate scan
  // differs.
  serve::AnnIndexOptions ao;
  ao.iterations = 4;
  ao.train_points_per_list = 64;
  const auto b0 = profiling::clock::now();
  auto snapshot = serve::make_serving_snapshot(
      frozen, serve::AnnMode::kOn, 0, models::next_snapshot_version(), ao);
  const double build_s = profiling::seconds_since(b0);

  serve::SessionOptions ann_so;
  ann_so.ann = serve::AnnMode::kOn;
  const auto ann_sess =
      std::make_shared<serve::InferenceSession>(snapshot, ann_so);
  serve::SessionOptions brute_so;
  brute_so.ann = serve::AnnMode::kOff;
  const auto brute_sess =
      std::make_shared<serve::InferenceSession>(frozen, brute_so);

  // Paired queries: recall@10 needs the brute-force ground truth per query,
  // so the brute count shrinks with N (each brute query is a full scan);
  // the ANN pass reruns the same anchors more times for timing resolution.
  const auto n_queries = std::clamp<std::int64_t>(2'000'000 / n, 4, 40);
  const auto ann_repeats = std::clamp<std::int64_t>(20'000'000 / n, 20, 400);
  Rng qrng(static_cast<std::uint64_t>(3000 + n));
  std::vector<std::pair<std::int64_t, std::int64_t>> anchors(
      static_cast<std::size_t>(n_queries));
  for (auto& [h, r] : anchors) {
    h = static_cast<std::int64_t>(
        qrng.next_below(static_cast<std::uint64_t>(n)));
    r = static_cast<std::int64_t>(
        qrng.next_below(static_cast<std::uint64_t>(kRelations)));
  }

  const auto tb = profiling::clock::now();
  std::vector<std::vector<serve::Prediction>> truth;
  truth.reserve(anchors.size());
  for (const auto& [h, r] : anchors)
    truth.push_back(brute_sess->top_tails(h, r, 10));
  const double brute_s = profiling::seconds_since(tb);

  double recall = 0.0;
  const auto ta = profiling::clock::now();
  std::vector<std::vector<serve::Prediction>> approx;
  approx.reserve(anchors.size());
  for (const auto& [h, r] : anchors)
    approx.push_back(ann_sess->top_tails(h, r, 10));
  for (std::int64_t rep = n_queries; rep < ann_repeats; ++rep) {
    const auto& [h, r] = anchors[static_cast<std::size_t>(
        rep % static_cast<std::int64_t>(anchors.size()))];
    ann_sess->top_tails(h, r, 10);
  }
  const double ann_s = profiling::seconds_since(ta);

  for (std::size_t q = 0; q < truth.size(); ++q) {
    int hit = 0;
    for (const auto& t : truth[q])
      for (const auto& a : approx[q])
        if (a.entity == t.entity) {
          ++hit;
          break;
        }
    recall += static_cast<double>(hit) /
              static_cast<double>(std::max<std::size_t>(truth[q].size(), 1));
  }
  recall /= static_cast<double>(truth.size());

  const auto stats = ann_sess->stats();
  AnnSweepRow row;
  row.entities = n;
  row.k_lists = snapshot->ann->k_lists();
  row.nprobe = serve::AnnIndex::auto_nprobe(row.k_lists);
  row.build_s = build_s;
  row.brute_topk_qps = static_cast<double>(n_queries) / brute_s;
  row.ann_topk_qps =
      static_cast<double>(std::max(ann_repeats, n_queries)) / ann_s;
  row.speedup = row.ann_topk_qps / row.brute_topk_qps;
  row.recall_at_10 = recall;
  row.mean_candidates =
      stats.topk_ann > 0 ? static_cast<double>(stats.ann_candidates) /
                               static_cast<double>(stats.topk_ann)
                         : 0.0;
  return row;
}

// ---- zero-downtime hot-swap -------------------------------------------------
// The publication claim: Engine::publish() freezes fresh weights and builds
// the new ANN index on the publisher's thread, then atomically installs the
// snapshot under live readers — no request fails, and the mid-swap p99 stays
// within a small factor of steady state (the flip itself is one pointer
// store; only the concurrent index build competes for CPU).

struct SwapRow {
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  int publishes = 0;
  std::int64_t installs = 0;
  double steady_p50_us = 0.0;
  double steady_p99_us = 0.0;
  double swap_p50_us = 0.0;
  double swap_p99_us = 0.0;
  double ratio = 0.0;  // swap_p99 / steady_p99
};

SwapRow run_hotswap() {
  constexpr index_t kEntities = 20'000;
  constexpr index_t kRelations = 20;
  constexpr int kThreads = 2;
  constexpr std::int64_t kPerThread = 1'500;
  constexpr int kPublishes = 3;

  Engine engine;
  ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = 64;
  spec.seed = 21;
  engine.create_model(spec, kEntities, kRelations);
  auto session = engine.open_session({});  // ANN auto: 20k > threshold

  std::atomic<std::int64_t> failed{0};
  // Mixed load: mostly small score batches, every 16th request a top-k
  // (the ANN path) — the same mix in both phases keeps the p99s comparable.
  const auto run_phase = [&](std::uint64_t seed) {
    std::mutex mu;
    std::vector<double> latencies_us;
    std::vector<std::thread> pool;
    for (int w = 0; w < kThreads; ++w) {
      pool.emplace_back([&, w] {
        Rng rng(seed + static_cast<std::uint64_t>(w));
        std::vector<Triplet> batch(kQueryBatch);
        std::vector<double> local;
        local.reserve(static_cast<std::size_t>(kPerThread));
        for (std::int64_t i = 0; i < kPerThread; ++i) {
          const auto q0 = profiling::clock::now();
          try {
            if (i % 16 == 15) {
              const auto h = static_cast<std::int64_t>(
                  rng.next_below(kEntities));
              const auto r = static_cast<std::int64_t>(
                  rng.next_below(kRelations));
              session->top_tails(h, r, 10);
            } else {
              for (auto& t : batch) {
                t.head = static_cast<std::int64_t>(rng.next_below(kEntities));
                t.relation =
                    static_cast<std::int64_t>(rng.next_below(kRelations));
                t.tail = static_cast<std::int64_t>(rng.next_below(kEntities));
              }
              session->score(batch);
            }
            local.push_back(profiling::seconds_since(q0) * 1e6);
          } catch (const std::exception&) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
        const std::lock_guard<std::mutex> lock(mu);
        latencies_us.insert(latencies_us.end(), local.begin(), local.end());
      });
    }
    for (auto& t : pool) t.join();
    std::sort(latencies_us.begin(), latencies_us.end());
    return latencies_us;
  };

  auto steady = run_phase(4000);

  // Same load again, now with a publisher hot-swapping fresh snapshots
  // (freeze + ANN rebuild + install) mid-run.
  std::atomic<bool> done{false};
  int published = 0;
  std::thread publisher([&] {
    for (int p = 0; p < kPublishes && !done.load(); ++p) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      engine.publish();
      ++published;
    }
  });
  auto swapped = run_phase(5000);
  done.store(true);
  publisher.join();

  SwapRow row;
  row.requests = static_cast<std::int64_t>(steady.size() + swapped.size());
  row.failed = failed.load();
  row.publishes = published;
  row.installs = session->stats().installs;
  row.steady_p50_us = percentile_us(steady, 0.50);
  row.steady_p99_us = percentile_us(steady, 0.99);
  row.swap_p50_us = percentile_us(swapped, 0.50);
  row.swap_p99_us = percentile_us(swapped, 0.99);
  row.ratio = row.steady_p99_us > 0.0 ? row.swap_p99_us / row.steady_p99_us
                                      : 0.0;
  return row;
}

}  // namespace
}  // namespace sptx

int main() {
  using namespace sptx;

  Rng rng(42);
  kg::Dataset ds = kg::generate(
      kg::scaled(kg::profile_by_name("FB15K"), bench::scale()), rng);

  Engine engine;
  ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = 64;
  spec.seed = 7;
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  train::TrainConfig tc;
  tc.epochs = bench::epochs(2);
  tc.batch_size = 8192;
  engine.train(ds.train, tc);

  const int many = 4;
  std::vector<ServeRow> rows;
  // Three postures per thread count: direct (no queue), continuous batching
  // (queue, no linger — coalesces only what contention piled up), and
  // linger batching (a 100us window forces coalescing, trading latency).
  for (const int threads : {1, many}) {
    rows.push_back(run_load(engine, ds, threads, false, 0));
    rows.push_back(run_load(engine, ds, threads, true, 0));
    rows.push_back(run_load(engine, ds, threads, true, 100));
  }

  std::printf("{\n  \"bench\": \"serve\",\n");
  std::printf("  \"dataset\": {\"entities\": %lld, \"relations\": %lld, "
              "\"train\": %lld},\n",
              static_cast<long long>(ds.num_entities()),
              static_cast<long long>(ds.num_relations()),
              static_cast<long long>(ds.train.size()));
  std::printf("  \"query_batch\": %zu,\n  \"requests_per_thread\": %lld,\n",
              kQueryBatch, static_cast<long long>(kRequests));
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServeRow& r = rows[i];
    std::printf("    {\"threads\": %d, \"micro_batch\": %s, "
                "\"window_us\": %d, \"qps\": %.0f, \"topk_qps\": %.0f, "
                "\"requests\": %lld, \"executions\": %lld, "
                "\"coalesced\": %lld}%s\n",
                r.threads, r.micro_batch ? "true" : "false", r.window_us,
                r.qps, r.topk_qps, static_cast<long long>(r.requests),
                static_cast<long long>(r.executions),
                static_cast<long long>(r.coalesced),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");

  // Degraded-mode rows: the same oversubscribed burst with and without
  // admission control (bounded queue + deadlines + capped concurrency).
  std::printf("  \"degraded\": [\n");
  const DegradedRow degraded[] = {run_degraded(engine, ds, false),
                                  run_degraded(engine, ds, true)};
  for (std::size_t i = 0; i < 2; ++i) {
    const DegradedRow& r = degraded[i];
    std::printf("    {\"posture\": \"%s\", \"accepted\": %lld, "
                "\"rejected_queue_full\": %lld, \"rejected_deadline\": %lld, "
                "\"accepted_qps\": %.0f, \"p50_us\": %.1f, "
                "\"p99_us\": %.1f}%s\n",
                r.posture, static_cast<long long>(r.accepted),
                static_cast<long long>(r.rejected_queue_full),
                static_cast<long long>(r.rejected_deadline), r.qps, r.p50_us,
                r.p99_us, i + 1 < 2 ? "," : "");
  }
  std::printf("  ],\n");

  // Clustered ANN sweep: brute vs probe+re-rank at three vocabulary sizes.
  std::printf("  \"ann_sweep\": [\n");
  const index_t sweep_sizes[] = {10'000, 100'000, 1'000'000};
  for (std::size_t i = 0; i < 3; ++i) {
    const AnnSweepRow r = run_ann_sweep(sweep_sizes[i]);
    std::printf("    {\"entities\": %lld, \"k_lists\": %lld, \"nprobe\": %d, "
                "\"build_s\": %.2f, \"brute_topk_qps\": %.1f, "
                "\"ann_topk_qps\": %.1f, \"speedup\": %.2f, "
                "\"recall_at_10\": %.4f, \"mean_candidates\": %.0f}%s\n",
                static_cast<long long>(r.entities),
                static_cast<long long>(r.k_lists), r.nprobe, r.build_s,
                r.brute_topk_qps, r.ann_topk_qps, r.speedup, r.recall_at_10,
                r.mean_candidates, i + 1 < 3 ? "," : "");
  }
  std::printf("  ],\n");

  // Zero-downtime publication: p99 with hot-swaps mid-run vs steady state.
  {
    const SwapRow r = run_hotswap();
    std::printf("  \"hot_swap\": {\"requests\": %lld, \"failed\": %lld, "
                "\"publishes\": %d, \"installs\": %lld, "
                "\"steady_p50_us\": %.1f, \"steady_p99_us\": %.1f, "
                "\"swap_p50_us\": %.1f, \"swap_p99_us\": %.1f, "
                "\"p99_ratio\": %.2f},\n",
                static_cast<long long>(r.requests),
                static_cast<long long>(r.failed), r.publishes,
                static_cast<long long>(r.installs), r.steady_p50_us,
                r.steady_p99_us, r.swap_p50_us, r.swap_p99_us, r.ratio);
  }

  std::printf("  \"ann_shape\": \"ANN top-k throughput should exceed brute "
              "force by ~5x at 100k entities and more at 1M with recall@10 "
              ">= 0.95 (scores exact, candidate set approximate); hot-swap "
              "p99 should stay within ~2x steady-state p99 with zero failed "
              "requests — the flip is one atomic pointer store, the index "
              "build runs off the read path\",\n");
  std::printf("  \"degraded_shape\": \"the bounded posture sheds excess load "
              "with typed rejections (queue_full on admission, deadline for "
              "requests that expire while queued) and keeps the accepted-"
              "request p99 near the 50ms deadline; the unbounded posture "
              "accepts everything and lets the backlog set the tail\",\n");
  std::printf("  \"paper_shape\": \"session is thread-safe at every row; "
              "under concurrency the linger window collapses executions to "
              "~requests/threads (coalesced ~= requests). On CPU-cheap "
              "queries the direct path wins raw QPS — the linger only pays "
              "when per-execution cost dominates (large models, accelerator "
              "dispatch); window 0 is the latency-neutral default\"\n}\n");
  return 0;
}
