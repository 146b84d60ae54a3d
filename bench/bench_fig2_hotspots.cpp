// Figure 2: top CPU-intensive functions per model/dataset for the DENSE
// (framework-style) training loop — the profile that motivates the paper.
// The hotspot registry attributes wall time to named ops; embedding
// gather/scatter ("EmbeddingBackward") should rank top-3 for most models,
// and the torus dissimilarity should surface for TorusE.
#include "src/profiling/timer.hpp"

#include "bench_common.hpp"

using namespace sptx;

namespace {

void print_top3(const char* model_name, const char* dataset) {
  const auto ranked = profiling::HotspotRegistry::instance().ranked();
  const double total = profiling::HotspotRegistry::instance().total();
  std::printf("%-7s (%s): ", model_name, dataset);
  int shown = 0;
  for (const auto& [fn, seconds] : ranked) {
    if (shown++ == 3) break;
    std::printf("%s %.0f%%  ", fn.c_str(),
                total > 0 ? 100.0 * seconds / total : 0.0);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 2 — top CPU-intensive functions (dense training loop)",
      "embedding_backward_scatter in top-3 for every model; "
      "l2_torus_dissimilarity prominent for TorusE");

  const int ep = bench::epochs(3);
  for (const std::string dataset : {"FB13", "FB15K"}) {
    for (const std::string model_name :
         {"TransE", "TransH", "TransR", "TransD", "TorusE"}) {
      const kg::Dataset ds = bench::load_scaled(dataset, 42);
      auto model =
          bench::make_model("dense", model_name, ds.num_entities(),
                            ds.num_relations(),
                            bench::bench_config(model_name), 7);
      profiling::HotspotRegistry::instance().reset();
      train::train(*model, ds.train, bench::bench_train_config(ep));
      print_top3(model_name.c_str(), dataset.c_str());
    }
  }

  // The sparse (SpTransX) loop, before/after the fused kernel layer: with
  // SPTX_FUSED=off the profile is the chain of small unfused autograd ops
  // (add/sub backward, relation_project, the torus dissimilarity); with the
  // default fused path those collapse into one kernels::fused_* node per
  // score column. This is the before/after the fused-kernel PR claims.
  std::printf("\n-- SpTransX loop, autograd graph (SPTX_FUSED=off) --\n");
  for (const char* mode : {"off", "on"}) {
    if (std::string(mode) == "on")
      std::printf("\n-- SpTransX loop, fused kernels (SPTX_FUSED=on) --\n");
    config::ScopedOverride fused("SPTX_FUSED", mode);
    for (const std::string model_name :
         {"TransE", "TransH", "TransR", "TransD", "TorusE"}) {
      const kg::Dataset ds = bench::load_scaled("FB13", 42);
      auto model =
          bench::make_model("SpTransX", model_name, ds.num_entities(),
                            ds.num_relations(),
                            bench::bench_config(model_name), 7);
      profiling::HotspotRegistry::instance().reset();
      train::train(*model, ds.train, bench::bench_train_config(ep));
      print_top3(model_name.c_str(), "FB13");
    }
  }
  return 0;
}
