// SpTransR — sparse TransR (§4.4).
//
// TransR scores ||M_r·h + r − M_r·t||. The paper's rearrangement
// M_r(h − t) + r means the batch needs only the ht expression (one SpMM
// with the 2-nnz-per-row incidence matrix, §4.2.1), ONE per-relation
// projection of the difference — instead of two separate projections of
// h and t as dense implementations do — and a relation gather, which we
// also express as an SpMM with a one-hot relation-selection incidence
// matrix so every embedding movement stays a sparse matrix product.
#pragma once

#include "src/models/model.hpp"
#include "src/nn/embedding.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx::models {

/// The relation-selection incidence builder moved to sparse/incidence.hpp
/// (where the other builders live); this alias keeps existing callers of
/// models::build_relation_selection_csr compiling.
using sptx::build_relation_selection_csr;

class SpTransR final : public ScoringCoreModel {
 public:
  SpTransR(index_t num_entities, index_t num_relations,
           const ModelConfig& config, Rng& rng);

  std::string name() const override { return "SpTransR"; }
  sparse::ScoringRecipe recipe() const override;
  autograd::Variable forward(const sparse::CompiledBatch& batch) override;
  autograd::Variable fused_forward(const sparse::CompiledBatch& batch) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;
  std::vector<ParamIndexSpace> param_index_spaces() override;

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable entities_;     // N × d
  nn::EmbeddingTable relations_;    // R × d_r
  nn::EmbeddingTable projections_;  // (R·d_r) × d, R stacked d_r×d blocks
};

}  // namespace sptx::models
