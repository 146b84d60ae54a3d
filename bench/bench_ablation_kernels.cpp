// Ablation: SpMM kernels (the naive reference loop / register-blocked SIMD /
// parallel row blocks × column panels / auto-dispatched), storage formats
// (CSR vs COO) and the two backward paths — design choices §2 and §5.5 call
// out. google-benchmark microbenchmarks over incidence-shaped matrices.
// tools/run_benches.sh captures this bench as BENCH_spmm.json to track the
// perf trajectory across PRs.
#include <benchmark/benchmark.h>

#include "bench/gbench_main.hpp"

#include <cstdlib>

#include "src/common/rng.hpp"
#include "src/common/runtime_config.hpp"
#include "src/kg/synthetic.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx {
namespace {

struct Workload {
  Csr csr;
  Coo coo;
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
  const std::span<const Triplet> batch = ds.train.triplets();
  Workload w;
  w.csr = build_hrt_incidence_csr(batch, n, r);
  w.coo = build_hrt_incidence(batch, n, r);
  w.x = Matrix(n + r, d);
  w.x.fill_uniform(rng, -1, 1);
  return w;
}

void BM_SpmmCsrNaive(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  Matrix out(w.csr.rows, w.x.cols());
  for (auto _ : state) {
    spmm_csr_into(w.csr, w.x, out, SpmmKernel::kNaive);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

void BM_SpmmCsrSimd(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  Matrix out(w.csr.rows, w.x.cols());
  for (auto _ : state) {
    spmm_csr_into(w.csr, w.x, out, SpmmKernel::kSimd);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

void BM_SpmmCsrTiledParallel(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  Matrix out(w.csr.rows, w.x.cols());
  for (auto _ : state) {
    spmm_csr_into(w.csr, w.x, out, SpmmKernel::kTiledParallel);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

void BM_SpmmCsrAuto(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  Matrix out(w.csr.rows, w.x.cols());
  for (auto _ : state) {
    spmm_csr_into(w.csr, w.x, out, SpmmKernel::kAuto);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

void BM_SpmmCoo(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  for (auto _ : state) {
    Matrix out = spmm_coo(w.coo, w.x);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.coo.nnz() * w.x.cols());
}

void BM_SpmmBackwardScatter(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  Matrix g(w.csr.rows, w.x.cols());
  g.fill(0.5f);
  Matrix dx(w.x.rows(), w.x.cols());
  // Registry override, not setenv: the process snapshot is latched at first
  // use, so only an installed snapshot reaches the dispatch.
  config::ScopedOverride force("SPTX_SPMM_BACKWARD", "scatter");
  for (auto _ : state) {
    spmm_csr_transposed_accumulate(w.csr, g, dx);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

// The cached-transpose gather path: Aᵀ is built once (outside the timed
// loop, as in training where the same incidence matrix serves fwd+bwd) and
// the backward runs as a conflict-free parallel accumulate over dX rows,
// tasks cut by Aᵀ's nonzeros.
void BM_SpmmBackwardTransposedCached(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  Matrix g(w.csr.rows, w.x.cols());
  g.fill(0.5f);
  Matrix dx(w.x.rows(), w.x.cols());
  config::ScopedOverride force("SPTX_SPMM_BACKWARD", "transpose");
  w.csr.transposed();  // warm the cache
  for (auto _ : state) {
    spmm_csr_transposed_accumulate(w.csr, g, dx);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

void BM_SpmmBackwardExplicitTranspose(benchmark::State& state) {
  const auto w = make_workload(state.range(0), 20000, 50, state.range(1));
  Matrix g(w.csr.rows, w.x.cols());
  g.fill(0.5f);
  for (auto _ : state) {
    Matrix dx = spmm_csr_transposed_explicit(w.csr, g);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * w.csr.nnz() * w.x.cols());
}

#define SPTX_ARGS ->Args({8192, 64})->Args({8192, 256})->Args({32768, 128})

BENCHMARK(BM_SpmmCsrNaive) SPTX_ARGS;
BENCHMARK(BM_SpmmCsrSimd) SPTX_ARGS;
BENCHMARK(BM_SpmmCsrTiledParallel) SPTX_ARGS;
BENCHMARK(BM_SpmmCsrAuto) SPTX_ARGS;
BENCHMARK(BM_SpmmCoo) SPTX_ARGS;
BENCHMARK(BM_SpmmBackwardScatter) SPTX_ARGS;
BENCHMARK(BM_SpmmBackwardTransposedCached) SPTX_ARGS;
BENCHMARK(BM_SpmmBackwardExplicitTranspose) SPTX_ARGS;

}  // namespace
}  // namespace sptx

SPTX_GBENCH_MAIN();
