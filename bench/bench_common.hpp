// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every bench regenerates one table or figure of the paper. Dataset sizes
// default to a scaled-down fraction of the paper's profiles so the whole
// harness finishes in minutes on a laptop; set SPTX_SCALE (0 < s ≤ 1,
// default 0.01) and SPTX_EPOCHS to approach paper scale. The absolute
// numbers then differ from the A100/EPYC testbed, but each bench prints
// the same rows/series as the paper artefact plus a `paper_shape` note
// stating the qualitative claim to check (who wins, by roughly what
// factor).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/runtime_config.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/model.hpp"
#include "src/train/trainer.hpp"

namespace sptx::bench {

/// Build type this bench binary was compiled as. The harness only trusts
/// Release numbers: a debug build inflates every autograd-vs-fused or
/// kernel-vs-kernel ratio (BENCH_spmm.json was once recorded from a debug
/// build — tools/run_benches.sh now configures Release and refuses quietly
/// mixed data).
inline constexpr bool kReleaseBuild =
#ifdef NDEBUG
    true;
#else
    false;
#endif

inline const char* build_type() { return kReleaseBuild ? "release" : "debug"; }

/// Loud stderr warning when the bench was not compiled Release.
inline void warn_if_debug_build() {
  if (!kReleaseBuild) {
    std::fprintf(stderr,
                 "WARNING: bench compiled with library_build_type=%s — "
                 "numbers below are NOT comparable; rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type());
  }
}

inline double scale() {
  const double s = config::current()->double_or("SPTX_SCALE", 0.01);
  return s <= 0.0 || s > 1.0 ? 0.01 : s;
}

inline int epochs(int fallback = 10) {
  return static_cast<int>(config::current()->int_or("SPTX_EPOCHS", fallback));
}

/// The seven Table 3 datasets (order of Figure 7's rows).
inline std::vector<std::string> figure7_datasets() {
  return {"FB15K", "FB15K237", "WN18", "WN18RR", "FB13", "YAGO3-10", "BIOKG"};
}

inline kg::Dataset load_scaled(const std::string& name, std::uint64_t seed,
                               double extra_scale = 1.0) {
  Rng rng(seed);
  const auto profile =
      kg::scaled(kg::profile_by_name(name), scale() * extra_scale);
  return kg::generate(profile, rng);
}

/// Construct either formulation by framework label.
inline std::unique_ptr<models::KgeModel> make_model(
    const std::string& framework, const std::string& model_name,
    index_t num_entities, index_t num_relations,
    const models::ModelConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  if (framework == "SpTransX") {
    return models::make_sparse_model(model_name, num_entities, num_relations,
                                     cfg, rng);
  }
  return models::make_dense_model(model_name, num_entities, num_relations,
                                  cfg, rng);
}

/// §5.3 config at bench scale: the paper's margin and loss with a scaled
/// embedding size (Table 4 uses 1024 for TransE/TorusE, 128 for
/// TransR/TransH; we default to 128/32 at SPTX_SCALE < 1).
inline models::ModelConfig bench_config(const std::string& model_name) {
  models::ModelConfig cfg;
  const bool full = scale() >= 1.0;
  if (model_name == "TransE" || model_name == "TorusE") {
    cfg.dim = full ? 1024 : 128;
  } else {
    cfg.dim = 128;
  }
  cfg.rel_dim = model_name == "TransR" ? (full ? 128 : 32) : cfg.dim;
  cfg.margin = 0.5f;
  return cfg;
}

inline train::TrainConfig bench_train_config(int epoch_count,
                                             index_t batch_size = 4096) {
  train::TrainConfig tc;
  tc.epochs = epoch_count;
  tc.batch_size = batch_size;
  tc.lr = 0.0004f;  // §5.3
  tc.record_loss_curve = true;
  return tc;
}

inline void print_header(const std::string& artefact,
                         const std::string& paper_shape) {
  warn_if_debug_build();
  std::printf("==============================================================\n");
  std::printf("%s\n", artefact.c_str());
  std::printf("paper_shape: %s\n", paper_shape.c_str());
  std::printf("scale=%.4g (SPTX_SCALE), epochs via SPTX_EPOCHS\n", scale());
  if (!kReleaseBuild) {
    std::printf("WARNING: library_build_type=%s — not a Release build, "
                "timings unusable\n",
                build_type());
  }
  std::printf("==============================================================\n");
}

}  // namespace sptx::bench
