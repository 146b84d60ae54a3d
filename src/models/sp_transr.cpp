#include "src/models/sp_transr.hpp"

#include <memory>

#include "src/kernels/fused.hpp"
#include "src/profiling/timer.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx::models {

SpTransR::SpTransR(index_t num_entities, index_t num_relations,
                   const ModelConfig& config, Rng& rng)
    : ScoringCoreModel(num_entities, num_relations, config),
      entities_(num_entities, config.dim, rng),
      relations_(num_relations, config.rel_dim, rng),
      projections_(num_relations * config.rel_dim, config.dim, rng) {
  // Start projections near identity-like scale so early training is stable:
  // Xavier already scales by 1/√d; nothing further needed, but we keep the
  // relation vectors unit-ish via post_step().
}

sparse::ScoringRecipe SpTransR::recipe() const {
  sparse::ScoringRecipe r;
  r.ht = true;
  r.relation_selection = true;
  r.relation_indices = true;
  // The fused kernel's relation-blocked GEMM order. Only requested when the
  // fused layer is active so the SPTX_FUSED=off baseline keeps its exact
  // historical compile cost (a plan compiled under off and then run under
  // on fails loudly in the fused kernel's groups check, never silently).
  r.relation_groups = kernels::fused_enabled();
  r.dim = config_.dim;
  r.relation_dim = config_.rel_dim;  // relations live in the d_r space
  return r;
}

autograd::Variable SpTransR::forward(const sparse::CompiledBatch& batch) {
  // ht = h − t via one SpMM; project once; add the gathered relations.
  autograd::Variable ht =
      autograd::spmm(batch.ht(), entities_.var());
  autograd::Variable projected = autograd::relation_project(
      projections_.var(), ht, batch.relation_indices(), config_.rel_dim);
  autograd::Variable r = autograd::spmm(batch.relation_selection(),
                                        relations_.var());
  autograd::Variable translated = autograd::add(projected, r);
  return config_.dissimilarity == Dissimilarity::kL2
             ? autograd::row_l2(translated)
             : autograd::row_l1(translated);
}

autograd::Variable SpTransR::fused_forward(const sparse::CompiledBatch& batch) {
  profiling::ScopedHotspot hotspot("kernels::fused_transr");
  const auto triplets = batch.triplets();
  const kernels::Norm norm = fused_norm(config_.dissimilarity);
  const index_t dr = config_.rel_dim;
  const auto groups = batch.relation_groups();
  // Pre-norm expression rows, kept for the backward so it never re-runs the
  // forward GEMM. Workspace-pooled: zero steady-state allocations.
  auto stash = std::make_shared<Matrix>(batch.size(), dr);
  Matrix out(batch.size(), 1);
  kernels::transr_forward(groups.get(), triplets, entities_.weights(),
                          relations_.weights(), projections_.weights(), dr,
                          norm, out.data(), stash.get());
  return autograd::Variable::op(
      std::move(out),
      {entities_.var(), relations_.var(), projections_.var()},
      [triplets, norm, dr, groups, stash,
       keep = batch.owned_triplets()](autograd::Node& node) {
        if (!fused_backward_needed(node)) return;
        kernels::transr_backward(
            groups.get(), triplets, node.parents()[0]->value(),
            node.parents()[1]->value(), node.parents()[2]->value(), dr, norm,
            *stash, node.value().data(), node.grad().data(),
            node.parents()[0]->grad(), node.parents()[1]->grad(),
            node.parents()[2]->grad());
      },
      "kernels::fused_transr_backward");
}

std::vector<float> SpTransR::score(std::span<const Triplet> batch) const {
  std::vector<float> out(batch.size());
  kernels::transr_forward(nullptr, batch, entities_.weights(),
                          relations_.weights(), projections_.weights(),
                          config_.rel_dim, fused_norm(config_.dissimilarity),
                          out.data(), /*expr_stash=*/nullptr);
  return out;
}

std::vector<autograd::Variable> SpTransR::params() {
  return {entities_.var(), relations_.var(), projections_.var()};
}

std::vector<ParamIndexSpace> SpTransR::param_index_spaces() {
  // The projection stack is (R·d_r) × d with block r owned by relation r —
  // block-sparse by relation, which shape inference must not guess at.
  return {ParamIndexSpace::kEntity, ParamIndexSpace::kRelation,
          ParamIndexSpace::kRelationBlocks};
}

void SpTransR::constrain(const sparse::RowSupport* touched) {
  if (!config_.normalize_entities) return;
  entities_.normalize_rows_prefix(num_entities_, touched);
}

}  // namespace sptx::models
