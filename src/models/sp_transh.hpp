// SpTransH — sparse TransH (§4.5).
//
// TransH projects onto relation hyperplanes: score
// ||h⊥ + d_r − t⊥|| with x⊥ = x − (w_rᵀx)w_r. The paper's algebraic
// rearrangement collapses the two projections into ONE shared ht
// expression:
//     (h − t) + d_r − (w_rᵀ(h − t)) w_r,
// so the batch needs one ht SpMM, two relation-selection SpMMs (w_r, d_r),
// one row-dot and one row-scaling — reusing the (h − t) tensor three times.
// Dense implementations compute h⊥ and t⊥ separately, roughly doubling the
// elementwise work and intermediate memory (the source of the 11× memory
// gap the paper reports on TransH).
#pragma once

#include "src/models/model.hpp"
#include "src/nn/embedding.hpp"

namespace sptx::models {

class SpTransH final : public ScoringCoreModel {
 public:
  SpTransH(index_t num_entities, index_t num_relations,
           const ModelConfig& config, Rng& rng);

  std::string name() const override { return "SpTransH"; }
  sparse::ScoringRecipe recipe() const override;
  autograd::Variable forward(const sparse::CompiledBatch& batch) override;
  autograd::Variable fused_forward(const sparse::CompiledBatch& batch) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable entities_;   // N × d
  nn::EmbeddingTable normals_;    // R × d   (w_r, unit-normalised)
  nn::EmbeddingTable transfers_;  // R × d   (d_r)
};

}  // namespace sptx::models
