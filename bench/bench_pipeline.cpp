// BatchPlan pipeline bench: first-epoch vs cached-epoch wall time.
//
// The plan/execute split claims that with an epoch-invariant schedule every
// epoch after the first skips plan compilation entirely (the PlanCache
// serves it), so cached epochs must be no slower — and on rebuild-heavy
// shapes measurably faster — than epoch 1. This bench trains each of the
// six sparse model families twice:
//
//   * fixed-order (§5.3 protocol): reports epoch-1 wall time vs the mean
//     cached-epoch wall time, and the cache/build counters that prove
//     reuse;
//   * shuffled + resampled: plans invalidate every epoch, so the comparison
//     becomes prefetch off vs on (background compilation of epoch e+1
//     overlapping epoch e).
//
// Output is one JSON document on stdout — tools/run_benches.sh captures it
// as BENCH_pipeline.json for the PR-to-PR perf trajectory.
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace sptx {
namespace {

struct PipelineRow {
  std::string model;
  double epoch1_s = 0.0;
  double cached_epoch_s = 0.0;   // mean of epochs >= 2 (plan path)
  double prefetch_off_s = 0.0;   // total seconds, shuffled + resampled
  double prefetch_on_s = 0.0;
  std::int64_t plan_hits = 0;
  std::int64_t incidence_builds = 0;
};

double mean_tail(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  return std::accumulate(xs.begin() + 1, xs.end(), 0.0) /
         static_cast<double>(xs.size() - 1);
}

PipelineRow run_model(const std::string& name, const kg::Dataset& ds,
                      int epochs) {
  PipelineRow row;
  row.model = name;

  models::ModelConfig cfg;
  cfg.dim = 64;  // rebuild-heavy shape: small dim keeps the SpMM cheap
  cfg.rel_dim = 32;

  train::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 4096;
  tc.lr = 0.01f;

  auto fresh = [&]() {
    Rng rng(7);
    return models::make_sparse_model(name, ds.num_entities(),
                                     ds.num_relations(), cfg, rng);
  };

  {  // Fixed-order protocol: cache serves every epoch after the first.
    auto model = fresh();
    const auto r = train::train(*model, ds.train, tc);
    row.epoch1_s = r.epoch_seconds.empty() ? 0.0 : r.epoch_seconds.front();
    row.cached_epoch_s = mean_tail(r.epoch_seconds);
    row.plan_hits = r.plan_stats.hits;
    row.incidence_builds = r.incidence_builds;
  }
  {  // Variant schedule: prefetch off vs on.
    tc.shuffle = true;
    tc.resample_negatives = true;
    tc.prefetch = false;
    auto off_model = fresh();
    row.prefetch_off_s = train::train(*off_model, ds.train, tc).total_seconds;
    tc.prefetch = true;
    auto on_model = fresh();
    row.prefetch_on_s = train::train(*on_model, ds.train, tc).total_seconds;
  }
  return row;
}

}  // namespace
}  // namespace sptx

int main() {
  using namespace sptx;
  // One representative per family: sp_transe, sp_transh, sp_transr,
  // sp_toruse, the semiring extensions, and the extra translational set.
  const std::vector<std::string> families = {"TransE", "TransH",  "TransR",
                                             "TorusE", "DistMult", "TransD"};
  const kg::Dataset ds = bench::load_scaled("FB15K", 33);
  const int epochs = bench::epochs(6);

  std::printf("{\n");
  std::printf("  \"bench\": \"pipeline\",\n");
  std::printf("  \"dataset\": \"FB15K(scaled)\",\n");
  std::printf("  \"triplets\": %lld,\n",
              static_cast<long long>(ds.train.size()));
  std::printf("  \"epochs\": %d,\n", epochs);
  std::printf(
      "  \"paper_shape\": \"cached epochs never slower than epoch 1; "
      "rebuild-heavy shapes measurably faster; prefetch hides plan "
      "compilation under shuffled/resampled schedules\",\n");
  std::printf("  \"models\": [\n");
  for (std::size_t i = 0; i < families.size(); ++i) {
    const PipelineRow row = run_model(families[i], ds, epochs);
    std::printf(
        "    {\"model\": \"%s\", \"epoch1_s\": %.6f, \"cached_epoch_s\": "
        "%.6f, \"cached_speedup\": %.3f, "
        "\"prefetch_off_s\": %.6f, \"prefetch_on_s\": %.6f, \"plan_hits\": "
        "%lld, \"incidence_builds\": %lld}%s\n",
        row.model.c_str(), row.epoch1_s, row.cached_epoch_s,
        row.cached_epoch_s > 0.0 ? row.epoch1_s / row.cached_epoch_s : 0.0,
        row.prefetch_off_s, row.prefetch_on_s,
        static_cast<long long>(row.plan_hits),
        static_cast<long long>(row.incidence_builds),
        i + 1 < families.size() ? "," : "");
    std::fflush(stdout);
  }
  std::printf("  ]\n}\n");
  return 0;
}
