#!/usr/bin/env bash
# Run the SpMM perf benches and emit machine-readable results, so the
# kernel-performance trajectory is tracked from PR to PR.
#
#   tools/run_benches.sh [build_dir] [out_dir]
#
# The build directory is configured AND built in Release here (an early
# BENCH_spmm.json was recorded from a debug build; every bench binary now
# also stamps its build_type into the JSON it emits, with a loud warning
# when it is not "release"). An existing build dir with a non-Release
# CMAKE_BUILD_TYPE is rejected — pass a different build_dir instead of
# silently mixing configurations.
#
# Outputs (in out_dir, default repo root):
#   BENCH_spmm.json      google-benchmark JSON for bench_ablation_kernels
#                        (reference loop, forward and backward entry
#                        points at pool width 1 and 4)
#   BENCH_hotspots.txt   bench_fig2_hotspots text artefact (dense-baseline
#                        profile that motivates the sparse formulation)
#   BENCH_pipeline.json  bench_pipeline: epoch-1 vs cached-epoch wall time
#                        per model family, prefetch on/off under shuffle
#   BENCH_ddp.json       bench_ddp: sharded multi-worker trainer over
#                        in-memory vs mmap-streamed stores (time, loss,
#                        sparse all-reduce rows, plan-cache traffic)
#   BENCH_serve.json     bench_serve: InferenceSession queries/sec,
#                        1 vs 4 threads, micro-batch coalescing off vs on
#   BENCH_fused.json     bench_fused: fused (SPTX_FUSED=on) vs autograd
#                        (off) per-epoch training time for TransE / TransR /
#                        TorusE on the Fig-2 workload
#   BENCH_runtime.json   bench_runtime: TaskPool thread scaling (SpMM /
#                        fused epoch / serve QPS at 1-8 lanes) + serve QPS
#                        sustained during composed train+serve on one pool
#
# Knobs: SPTX_BENCH_MIN_TIME (per-benchmark min time, default 0.2s),
# SPTX_EPOCHS / SPTX_SCALE forwarded to the hotspot bench as usual.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${2:-$repo_root}"
min_time="${SPTX_BENCH_MIN_TIME:-0.2}"

if [[ -f "$build_dir/CMakeCache.txt" ]]; then
  cached_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")"
  if [[ -n "$cached_type" && "$cached_type" != "Release" ]]; then
    echo "ERROR: $build_dir is configured as CMAKE_BUILD_TYPE=$cached_type." >&2
    echo "Bench numbers from non-Release builds are not comparable." >&2
    echo "Pass a fresh build dir: tools/run_benches.sh build-release" >&2
    exit 1
  fi
fi

echo "== Configure + build (Release) in $build_dir"
cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)"

if [[ ! -x "$build_dir/bench_ablation_kernels" ]]; then
  echo "bench_ablation_kernels missing after the build — is google-benchmark" >&2
  echo "installed? Refusing to report a successful run with no kernel data." >&2
  exit 1
else
  echo "== SpMM ablation -> $out_dir/BENCH_spmm.json"
  "$build_dir/bench_ablation_kernels" \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$out_dir/BENCH_spmm.json" \
    --benchmark_out_format=json
  if grep -q '"library_build_type": "debug"' "$out_dir/BENCH_spmm.json"; then
    echo "WARNING: google-benchmark reports library_build_type=debug in" >&2
    echo "  BENCH_spmm.json — numbers are not comparable." >&2
  fi
fi

if [[ -x "$build_dir/bench_fig2_hotspots" ]]; then
  echo "== Training hotspots -> $out_dir/BENCH_hotspots.txt"
  SPTX_EPOCHS="${SPTX_EPOCHS:-2}" "$build_dir/bench_fig2_hotspots" \
    | tee "$out_dir/BENCH_hotspots.txt"
fi

if [[ -x "$build_dir/bench_pipeline" ]]; then
  echo "== BatchPlan pipeline -> $out_dir/BENCH_pipeline.json"
  "$build_dir/bench_pipeline" > "$out_dir/BENCH_pipeline.json"
fi

if [[ -x "$build_dir/bench_ddp" ]]; then
  echo "== Sharded DDP (memory vs streaming) -> $out_dir/BENCH_ddp.json"
  (cd "$build_dir" && ./bench_ddp) > "$out_dir/BENCH_ddp.json"
fi

if [[ -x "$build_dir/bench_serve" ]]; then
  echo "== Inference serving (threads x coalescing) -> $out_dir/BENCH_serve.json"
  (cd "$build_dir" && ./bench_serve) > "$out_dir/BENCH_serve.json"
fi

if [[ -x "$build_dir/bench_fused" ]]; then
  echo "== Fused vs autograd scoring kernels -> $out_dir/BENCH_fused.json"
  (cd "$build_dir" && ./bench_fused) > "$out_dir/BENCH_fused.json"
fi

if [[ -x "$build_dir/bench_runtime" ]]; then
  echo "== Runtime pool (thread scaling + composed) -> $out_dir/BENCH_runtime.json"
  (cd "$build_dir" && ./bench_runtime) > "$out_dir/BENCH_runtime.json"
fi

echo "done."
