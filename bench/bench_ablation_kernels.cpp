// Ablation: the SpMM entry points — the plain reference loop against the
// library's forward (spmm_csr_into) and backward
// (spmm_csr_transposed_accumulate) — at pool width 1 and 4. The width is
// what the entry points dispatch on: at width 1 the forward runs its serial
// register-blocked pass and the backward its serial scatter; at width 4
// (and nnz·d above kSpmmParallelMinWork) they run the parallel row blocks
// and the nnz-balanced transposed gather — the design choices §2 and
// Appendix G call out. google-benchmark microbenchmarks over
// incidence-shaped matrices. tools/run_benches.sh captures this bench as
// BENCH_spmm.json to track the perf trajectory across PRs.
#include <benchmark/benchmark.h>

#include "bench/gbench_main.hpp"

#include <utility>

#include "src/common/rng.hpp"
#include "src/kg/synthetic.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx {
namespace {

struct Workload {
  Csr csr;
  Matrix x;
};

// Batches come from the repo's synthetic KG generator so the incidence
// matrix has the heavy-tailed (Zipf-skewed) entity frequencies of the
// paper's Table 3 datasets — that skew sets the kernels' cache behaviour,
// and a uniform draw would benchmark the DRAM wall instead of the kernel.
Workload make_workload(index_t m, index_t n, index_t r, index_t d) {
  Rng rng(7);
  const kg::Dataset ds = kg::generate(
      {"bench-kernels", n, r, m}, rng, /*valid_frac=*/0.0, /*test_frac=*/0.0);
  Workload w;
  w.csr = build_hrt_incidence_csr(ds.train.triplets(), n, r);
  w.x = Matrix(n + r, d);
  w.x.fill_uniform(rng, -1, 1);
  return w;
}

/// Runs the benchmark body at pool width state.range(2), then restores the
/// pool's previous width.
class PoolWidth {
 public:
  explicit PoolWidth(const benchmark::State& state)
      : before_(runtime::TaskPool::instance().threads()) {
    runtime::TaskPool::instance().resize(static_cast<int>(state.range(2)));
  }
  ~PoolWidth() { runtime::TaskPool::instance().resize(before_); }
  PoolWidth(const PoolWidth&) = delete;
  PoolWidth& operator=(const PoolWidth&) = delete;

 private:
  int before_;
};

void BM_SpmmCsrReference(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  for (auto _ : state) {
    Matrix out = spmm_csr_reference(w.csr, w.x);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

void BM_SpmmCsr(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  const PoolWidth width(state);
  Matrix out(w.csr.rows, w.x.cols());
  for (auto _ : state) {
    spmm_csr_into(w.csr, w.x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

// When the width picks the gather, Aᵀ is built once outside the timed loop,
// as in training where batch-plan compilation warms it and the same
// incidence matrix serves forward and backward.
void BM_SpmmBackward(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  const PoolWidth width(state);
  Matrix g(w.csr.rows, w.x.cols());
  g.fill(0.5f);
  Matrix dx(w.x.rows(), w.x.cols());
  if (spmm_backward_uses_transpose(w.csr, w.x.cols())) w.csr.transposed();
  state.SetLabel(spmm_backward_uses_transpose(w.csr, w.x.cols()) ? "gather"
                                                                 : "scatter");
  for (auto _ : state) {
    spmm_csr_transposed_accumulate(w.csr, g, dx);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

// (batch triplets m, embedding dim d).
constexpr std::pair<int, int> kShapes[] = {{8192, 64}, {8192, 256},
                                           {32768, 128}};

void shapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"m", "d"});
  for (const auto& [m, d] : kShapes) b->Args({m, d});
}

void shapes_by_width(benchmark::internal::Benchmark* b) {
  b->ArgNames({"m", "d", "width"});
  for (const auto& [m, d] : kShapes)
    for (int width : {1, 4}) b->Args({m, d, width});
}

BENCHMARK(BM_SpmmCsrReference)->Apply(shapes);
BENCHMARK(BM_SpmmCsr)->Apply(shapes_by_width);
BENCHMARK(BM_SpmmBackward)->Apply(shapes_by_width);

}  // namespace
}  // namespace sptx

SPTX_GBENCH_MAIN();
