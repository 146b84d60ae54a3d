// SpTransE — sparse TransE (§4.3).
//
// Entities and relations live in ONE stacked embedding matrix
// E ∈ R^{(N+R)×d} (entities first). A batch's score expression
// h + r − t is a single SpMM with the hrt incidence matrix (§4.2.2);
// the backward pass is one transposed SpMM (Appendix G). The dense
// baseline needs three gathers, two elementwise passes and three
// scatter-adds for the same computation.
#pragma once

#include "src/models/model.hpp"
#include "src/nn/embedding.hpp"

namespace sptx::models {

class SpTransE final : public ScoringCoreModel {
 public:
  SpTransE(index_t num_entities, index_t num_relations,
           const ModelConfig& config, Rng& rng);

  std::string name() const override { return "SpTransE"; }
  sparse::ScoringRecipe recipe() const override;
  autograd::Variable forward(const sparse::CompiledBatch& batch) override;
  autograd::Variable fused_forward(const sparse::CompiledBatch& batch) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

  /// Tails rank by ||(h + r) − t||, heads by ||(t − r) − h|| — the exact
  /// score under the config norm — so the probe metric IS the score.
  std::optional<AnnSupport> ann_support() const override;
  void ann_query(bool corrupt_tail, std::int64_t anchor, std::int64_t relation,
                 float* q) const override;

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable ent_rel_;  // stacked [entities; relations]
};

}  // namespace sptx::models
