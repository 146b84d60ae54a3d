// Extending the framework with a new translational model.
//
// The paper (§1, conclusion) argues the sparse formulation extends to other
// translation-based models such as TransM. This example implements
// **SpTransM** — score w_r · ||h + r − t|| with a per-relation scalar
// weight (Fan et al., 2014) — outside the library, using only public API:
// the incidence builders, the autograd spmm/scale_rows ops, and the
// KgeModel interface. It then trains and evaluates like any built-in model.
//
//   build/examples/custom_model
#include <cmath>
#include <cstdio>

#include "src/eval/link_prediction.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/model.hpp"
#include "src/models/sp_transr.hpp"
#include "src/nn/embedding.hpp"
#include "src/sparse/incidence.hpp"
#include "src/train/trainer.hpp"

namespace {

using namespace sptx;

class SpTransM final : public models::KgeModel {
 public:
  SpTransM(index_t num_entities, index_t num_relations,
           const models::ModelConfig& config, Rng& rng)
      : KgeModel(num_entities, num_relations, config),
        ent_rel_(num_entities + num_relations, config.dim, rng),
        rel_weights_(num_relations, 1, rng) {
    // TransM weights relations by inverse mapping complexity; start at 1.
    rel_weights_.mutable_weights().fill(1.0f);
  }

  std::string name() const override { return "SpTransM(custom)"; }

  autograd::Variable distance(std::span<const Triplet> batch) {
    // One hrt SpMM — identical structure to SpTransE...
    auto a = std::make_shared<Csr>(
        build_hrt_incidence_csr(batch, num_entities_, num_relations_));
    autograd::Variable hrt =
        autograd::spmm(std::move(a), ent_rel_.var());
    autograd::Variable norm = autograd::row_l2(hrt);
    // ...then scale each triplet's distance by its relation weight, gathered
    // through a relation-selection SpMM so the weight is also trained.
    auto rel_inc = std::make_shared<Csr>(
        models::build_relation_selection_csr(batch, num_relations_));
    autograd::Variable w =
        autograd::spmm(std::move(rel_inc), rel_weights_.var());
    return autograd::mul(w, norm);
  }

  autograd::Variable loss(std::span<const Triplet> pos,
                          std::span<const Triplet> neg) override {
    return autograd::margin_ranking_loss(distance(pos), distance(neg),
                                         config_.margin);
  }

  std::vector<float> score(std::span<const Triplet> batch) const override {
    const Matrix& e = ent_rel_.weights();
    const Matrix& w = rel_weights_.weights();
    std::vector<float> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Triplet& t = batch[i];
      const float* h = e.row(t.head);
      const float* r = e.row(num_entities_ + t.relation);
      const float* tl = e.row(t.tail);
      float acc = 0.0f;
      for (index_t j = 0; j < e.cols(); ++j) {
        const float v = h[j] + r[j] - tl[j];
        acc += v * v;
      }
      out[i] = w.at(t.relation, 0) * std::sqrt(acc);
    }
    return out;
  }

  std::vector<autograd::Variable> params() override {
    return {ent_rel_.var(), rel_weights_.var()};
  }

 private:
  nn::EmbeddingTable ent_rel_;
  nn::EmbeddingTable rel_weights_;  // w_r, one scalar per relation
};

}  // namespace

int main() {
  Rng rng(42);
  kg::Dataset ds = kg::generate({"custom", 400, 8, 5000}, rng, 0.05, 0.05);

  models::ModelConfig cfg;
  cfg.dim = 48;
  cfg.normalize_entities = false;
  Rng mr(7);
  SpTransM model(ds.num_entities(), ds.num_relations(), cfg, mr);

  train::TrainConfig tc;
  tc.epochs = 250;
  tc.batch_size = 2048;
  tc.lr = 1.0f;
  tc.use_adagrad = true;
  tc.resample_negatives = true;
  const auto result = train::train(model, ds.train, tc);
  std::printf("%s: loss %.4f -> %.4f\n", model.name().c_str(),
              result.epoch_loss.front(), result.epoch_loss.back());

  eval::EvalConfig ec;
  ec.max_queries = 80;
  const auto metrics = eval::evaluate(model, ds, ec);
  std::printf("filtered Hits@10 %.3f  MRR %.3f\n", metrics.hits_at_10,
              metrics.mrr);
  return 0;
}
