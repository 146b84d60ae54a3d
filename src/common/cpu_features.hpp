// Runtime CPU feature detection for the SIMD kernel dispatch.
//
// The SpMM engine compiles AVX2/FMA kernels unconditionally (via per-function
// target attributes) and selects them at runtime from cpuid, so a portable
// -DSPTX_NATIVE=OFF binary still runs the vector kernels on capable hardware
// and falls back to scalar code everywhere else. The SPTX_NO_SIMD registry
// knob forces the scalar path (used by the kernel-equivalence tests to cover
// both sides of the dispatch on one machine).
#pragma once

#include "src/common/runtime_config.hpp"

namespace sptx {

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// cpuid-derived feature set, probed once per process.
inline const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.fma = __builtin_cpu_supports("fma") != 0;
    f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
    return f;
  }();
  return features;
}

/// True when the AVX2+FMA kernels may run: hardware support present and the
/// SPTX_NO_SIMD kill-switch unset in the current runtime-config snapshot.
/// Re-evaluated per call — an acquire load of the config version, a
/// thread-local compare and a pre-resolved field read (RuntimeConfig::hot()),
/// with no write to shared memory — so a programmatically installed snapshot
/// takes effect without a process restart and the dispatch path never
/// touches a mutex, a refcount or the allocator. Loops over many rows still
/// resolve it once per call and pass it to the simd:: primitives.
inline bool simd_enabled() {
  if (config::current()->hot().no_simd) return false;
  return cpu_features().avx2 && cpu_features().fma;
}

}  // namespace sptx
