// The row-sparse training step: Optimizer::step(support) and
// KgeModel::post_step(support) must leave exactly the bits the all-rows
// forms (zero_grad, step(), post_step()) leave.
//
//  * Differential: train() (row-sparse) against an all-rows replay of the
//    same schedule, for every sparse family and dense baseline, SGD and
//    Adagrad, fused on and off, d ∈ {8, 13, 128}, several epochs with
//    shuffle and negative resampling — checkpoints byte-identical.
//  * Momentum, weight decay and clipping move every row, so step(support)
//    takes all rows with them on.
//  * Renormalisation is idempotent bit for bit (the property the sparse
//    post_step rests on).
//  * A model whose gradient escapes its declared ParamIndexSpace raises a
//    typed error instead of training on silently dropped gradient.
//  * RowSupport edge cases, and the row-wise vs flat simd::axpy rounding.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/autograd/ops.hpp"
#include "src/common/error.hpp"
#include "src/common/runtime_config.hpp"
#include "src/common/simd.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/checkpoint.hpp"
#include "src/models/model.hpp"
#include "src/nn/optim.hpp"
#include "src/sparse/row_support.hpp"
#include "src/train/batch_plan.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

const char* const kSparseFamilies[] = {
    "TransE", "TransR", "TransH",   "TorusE",  "TransD", "TransA",
    "TransC", "TransM", "DistMult", "ComplEx", "RotatE"};
const char* const kDenseFamilies[] = {"TransE", "TransR", "TransH", "TorusE",
                                      "TransD"};

std::string ckpt_bytes(models::KgeModel& model) {
  static std::atomic<int> counter{0};
  const std::string path = ::testing::TempDir() + "/row_sparse_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter.fetch_add(1));
  models::save_checkpoint(model, path);
  std::ifstream is(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

/// 300 entities against 64-triplet batches: a batch touches well under
/// every row, so the row-sparse and all-rows steps genuinely differ in the
/// rows they visit.
const kg::Dataset& dataset() {
  static const kg::Dataset ds = [] {
    Rng rng(17);
    return kg::generate({"rowsparse", 300, 30, 400}, rng, 0.0, 0.0);
  }();
  return ds;
}

std::unique_ptr<models::KgeModel> make(bool dense, const std::string& family,
                                       index_t dim) {
  models::ModelConfig cfg;
  cfg.dim = dim;
  cfg.rel_dim = dim;
  Rng rng(23);
  const kg::Dataset& ds = dataset();
  return dense ? models::make_dense_model(family, ds.num_entities(),
                                          ds.num_relations(), cfg, rng)
               : models::make_sparse_model(family, ds.num_entities(),
                                           ds.num_relations(), cfg, rng);
}

train::TrainConfig schedule(bool adagrad) {
  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 64;
  tc.lr = 0.05f;
  tc.use_adagrad = adagrad;
  tc.shuffle = true;
  tc.resample_negatives = true;
  tc.seed = 5;
  return tc;
}

void shuffle_positions(std::vector<index_t>& positions, Rng& rng) {
  for (std::size_t i = positions.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(positions[i - 1], positions[j]);
  }
}

/// train()'s planned schedule (same RNG draws in the same order) stepped
/// with the all-rows forms: zero_grad, step(), post_step() every batch.
std::vector<float> train_all_rows(models::KgeModel& model,
                                  const TripletStore& data,
                                  const train::TrainConfig& c) {
  Rng rng(c.seed);
  kg::NegativeSampler sampler(data, c.corruption, c.filtered_negatives);
  std::vector<Triplet> negatives =
      sampler.pregenerate_k(data.triplets(), c.negatives_per_positive, rng);
  std::unique_ptr<nn::Optimizer> opt;
  if (c.use_adagrad) {
    opt = std::make_unique<nn::Adagrad>(model.params(), c.lr);
  } else {
    opt = std::make_unique<nn::Sgd>(model.params(), c.lr);
  }
  opt->set_weight_decay(c.weight_decay);
  opt->set_grad_clip_norm(c.grad_clip_norm);
  auto* scoring = dynamic_cast<models::ScoringCoreModel*>(&model);
  const sparse::ScoringRecipe recipe =
      scoring ? scoring->recipe() : sparse::ScoringRecipe{};

  std::vector<index_t> positions(static_cast<std::size_t>(data.size()));
  for (std::size_t i = 0; i < positions.size(); ++i)
    positions[i] = static_cast<index_t>(i);
  if (c.shuffle) shuffle_positions(positions, rng);

  std::vector<float> losses;
  for (int epoch = 0; epoch < c.epochs; ++epoch) {
    train::EpochBatchSource src;
    src.data = kg::TripletSource(data);
    src.negatives = negatives;
    src.positions = positions;
    src.k = c.negatives_per_positive;
    src.batch_size = c.batch_size;
    const auto plans = train::compile_epoch_plans(src, recipe, nullptr);
    double sum = 0.0;
    for (const auto& bp : plans) {
      opt->zero_grad();
      autograd::Variable loss =
          scoring ? scoring->loss(*bp.pos, *bp.neg)
                  : model.loss(bp.pos->triplets(), bp.neg->triplets());
      loss.backward();
      opt->step();
      model.post_step();
      sum += loss.value().at(0, 0);
    }
    losses.push_back(
        static_cast<float>(sum / static_cast<double>(plans.size())));
    if (epoch + 1 < c.epochs) {
      if (c.resample_negatives)
        negatives = sampler.pregenerate_k(data.triplets(),
                                          c.negatives_per_positive, rng);
      if (c.shuffle) shuffle_positions(positions, rng);
    }
  }
  return losses;
}

void expect_identical(bool dense, const std::string& family, index_t dim,
                      const train::TrainConfig& tc) {
  const kg::Dataset& ds = dataset();
  auto sparse_run = make(dense, family, dim);
  auto reference = make(dense, family, dim);
  const auto result = train::train(*sparse_run, ds.train, tc);
  const auto ref_losses = train_all_rows(*reference, ds.train, tc);
  const std::string what = std::string(dense ? "dense " : "sparse ") + family +
                           " d=" + std::to_string(dim) +
                           (tc.use_adagrad ? " adagrad" : " sgd");
  EXPECT_EQ(result.epoch_loss, ref_losses) << what;
  EXPECT_TRUE(ckpt_bytes(*sparse_run) == ckpt_bytes(*reference)) << what;
}

class RowSparseDifferential
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(RowSparseDifferential, CheckpointsMatchTheAllRowsStep) {
  const auto [adagrad, fused] = GetParam();
  config::ScopedOverride fused_knob("SPTX_FUSED", fused ? "on" : "off");
  const train::TrainConfig tc = schedule(adagrad);
  for (const index_t dim : {8, 13, 128}) {
    for (const char* family : kSparseFamilies)
      expect_identical(false, family, dim, tc);
    for (const char* family : kDenseFamilies)
      expect_identical(true, family, dim, tc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OptimizersAndForwards, RowSparseDifferential,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param) ? "Adagrad" : "Sgd") +
             (std::get<1>(param_info.param) ? "Fused" : "Autograd");
    });

TEST(RowSparseStep, WeightDecayAndClipRunsMatchTheAllRowsStep) {
  for (const bool adagrad : {false, true}) {
    train::TrainConfig tc = schedule(adagrad);
    tc.weight_decay = 0.01f;
    expect_identical(false, "TransE", 13, tc);
    tc.weight_decay = 0.0f;
    tc.grad_clip_norm = 0.05f;
    expect_identical(false, "TransE", 13, tc);
  }
}

/// A 40×`d` entity table plus its gradient, and the support marking
/// entities {1, 5, 38} of a 40-entity, 4-relation vocabulary.
struct Table {
  autograd::Variable w;
  sparse::RowSupport touched{40, 4};

  explicit Table(index_t d) {
    Matrix m(40, d);
    Rng rng(3);
    m.fill_uniform(rng, -1.0f, 1.0f);
    w = autograd::Variable::leaf(std::move(m), /*requires_grad=*/true, "w");
    const std::vector<Triplet> batch = {{1, 0, 5}, {38, 2, 1}};
    touched.add(batch);
  }
  /// Gradient everywhere (`all_rows`) or only on the touched rows.
  void set_grad(bool all_rows, float base) {
    Matrix& g = w.grad();
    for (index_t r = 0; r < g.rows(); ++r) {
      const bool on = all_rows || touched.contains(r);
      for (index_t k = 0; k < g.cols(); ++k)
        g.at(r, k) = on ? base + 0.01f * static_cast<float>(r + k) : 0.0f;
    }
  }
};

std::unique_ptr<nn::Optimizer> make_opt(const Table& t, const char* kind) {
  std::unique_ptr<nn::Optimizer> opt;
  if (std::string(kind) == "momentum") {
    opt = std::make_unique<nn::Sgd>(std::vector{t.w}, 0.1f, 0.9f);
  } else {
    opt = std::make_unique<nn::Sgd>(std::vector{t.w}, 0.1f);
    if (std::string(kind) == "decay") opt->set_weight_decay(0.5f);
    if (std::string(kind) == "clip") opt->set_grad_clip_norm(0.01f);
  }
  opt->set_index_spaces({sparse::ParamIndexSpace::kEntity});
  return opt;
}

TEST(RowSparseStep, MomentumDecayAndClipTakeAllRows) {
  for (const char* kind : {"momentum", "decay", "clip"}) {
    Table sparse_t(13), dense_t(13);
    auto sparse_opt = make_opt(sparse_t, kind);
    auto dense_opt = make_opt(dense_t, kind);
    // Batch 1 moves every row (and fills every momentum slot); batch 2
    // has gradient on the touched rows only.
    for (int batch = 0; batch < 2; ++batch) {
      sparse_t.set_grad(batch == 0, 0.5f);
      dense_t.set_grad(batch == 0, 0.5f);
      const Matrix before = sparse_t.w.value();
      sparse_opt->step(sparse_t.touched);
      dense_opt->step();
      EXPECT_EQ(max_abs_diff(sparse_t.w.value(), dense_t.w.value()), 0.0f)
          << kind;
      EXPECT_EQ(sparse_t.w.grad().max_abs(), 0.0f)
          << kind << ": step(support) must clear every row it visits";
      if (batch == 1 && std::string(kind) != "clip") {
        // Row 0 is untouched and had zero gradient, yet it moved.
        bool moved = false;
        for (index_t k = 0; k < 13; ++k)
          moved |= before.at(0, k) != sparse_t.w.value().at(0, k);
        EXPECT_TRUE(moved) << kind << " must update untouched rows";
      }
    }
  }
}

TEST(RowSparseStep, PlainStepVisitsOnlyTheSupport) {
  for (const bool adagrad : {false, true}) {
    Table t(13);
    std::unique_ptr<nn::Optimizer> opt;
    if (adagrad) {
      opt = std::make_unique<nn::Adagrad>(std::vector{t.w}, 0.1f);
    } else {
      opt = std::make_unique<nn::Sgd>(std::vector{t.w}, 0.1f);
    }
    opt->set_index_spaces({sparse::ParamIndexSpace::kEntity});
    t.set_grad(true, 0.5f);  // a residue outside the support stays put
    const Matrix before = t.w.value();
    opt->step(t.touched);
    for (index_t r = 0; r < 40; ++r) {
      const bool touched = t.touched.contains(r);
      bool moved = false;
      for (index_t k = 0; k < 13; ++k)
        moved |= before.at(r, k) != t.w.value().at(r, k);
      EXPECT_EQ(moved, touched) << "row " << r;
      EXPECT_EQ(t.w.grad().at(r, 0) == 0.0f, touched) << "row " << r;
    }
  }
}

TEST(RowSparseStep, RowParallelStepMatchesTheAllRowsStep) {
  // 6000 × 32 floats is three pool tasks' worth of rows: the row-sparse
  // step runs on the pool (under TSan in CI) and must still agree with
  // step() bit for bit, on a support touching about a third of the rows.
  for (const bool adagrad : {false, true}) {
    sparse::RowSupport touched(6000, 7);
    std::vector<Triplet> batch;
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
      batch.push_back({static_cast<std::int64_t>(rng.next_below(6000)),
                       static_cast<std::int64_t>(rng.next_below(7)),
                       static_cast<std::int64_t>(rng.next_below(6000))});
    touched.add(batch);
    Matrix init(6000, 32);
    init.fill_uniform(rng, -1.0f, 1.0f);
    auto sparse_w = autograd::Variable::leaf(init, true, "w");
    auto dense_w = autograd::Variable::leaf(init, true, "w");
    std::unique_ptr<nn::Optimizer> sparse_opt, dense_opt;
    if (adagrad) {
      sparse_opt = std::make_unique<nn::Adagrad>(std::vector{sparse_w}, 0.1f);
      dense_opt = std::make_unique<nn::Adagrad>(std::vector{dense_w}, 0.1f);
    } else {
      sparse_opt = std::make_unique<nn::Sgd>(std::vector{sparse_w}, 0.1f);
      dense_opt = std::make_unique<nn::Sgd>(std::vector{dense_w}, 0.1f);
    }
    sparse_opt->set_index_spaces({sparse::ParamIndexSpace::kEntity});
    for (int step = 0; step < 3; ++step) {
      for (auto* w : {&sparse_w, &dense_w}) {
        Matrix& g = w->grad();
        for (index_t r = 0; r < g.rows(); ++r)
          for (index_t k = 0; k < g.cols(); ++k)
            g.at(r, k) = touched.contains(r)
                             ? 0.01f * static_cast<float>((r * 7 + k) % 13)
                             : 0.0f;
      }
      sparse_opt->step(touched);
      dense_opt->step();
      ASSERT_EQ(max_abs_diff(sparse_w.value(), dense_w.value()), 0.0f)
          << (adagrad ? "adagrad" : "sgd") << " step " << step;
      ASSERT_EQ(sparse_w.grad().max_abs(), 0.0f);
    }
  }
}

TEST(RowSparseStep, NormalisingTwiceEqualsNormalisingOnce) {
  Rng rng(11);
  std::vector<float> once, twice;
  for (const bool vec : {false, true}) {
    for (index_t d = 1; d <= 1000; ++d) {
      for (const float magnitude : {1e-3f, 1.0f, 30.0f, 1e3f}) {
        once.resize(static_cast<std::size_t>(d));
        for (float& x : once) x = magnitude * rng.uniform(-1.0f, 1.0f);
        simd::normalize_l2(once.data(), d, vec);
        twice = once;
        simd::normalize_l2(twice.data(), d, vec);
        ASSERT_EQ(std::memcmp(once.data(), twice.data(),
                              once.size() * sizeof(float)),
                  0)
            << "d=" << d << " magnitude=" << magnitude << " vec=" << vec;
      }
    }
  }
}

/// A TransE whose loss adds a full-table L2 penalty: every entity row gets
/// gradient, but the inferred index space claims only the batch's rows.
class LeakyModel final : public models::KgeModel {
 public:
  explicit LeakyModel(std::unique_ptr<models::KgeModel> inner)
      : KgeModel(inner->num_entities(), inner->num_relations(), {}),
        inner_(std::move(inner)) {}
  std::string name() const override { return "Leaky"; }
  autograd::Variable loss(std::span<const Triplet> pos,
                          std::span<const Triplet> neg) override {
    autograd::Variable table = inner_->params()[0];
    return autograd::add(inner_->loss(pos, neg),
                         autograd::scale(autograd::sum_all(
                                             autograd::mul(table, table)),
                                         1e-4f));
  }
  std::vector<float> score(std::span<const Triplet> batch) const override {
    return inner_->score(batch);
  }
  std::vector<autograd::Variable> params() override {
    return inner_->params();
  }

 private:
  std::unique_ptr<models::KgeModel> inner_;
};

TEST(RowSparseStep, GradientOutsideTheDeclaredSpaceIsATypedError) {
  LeakyModel model(make(false, "TransE", 8));
  try {
    train::train(model, dataset().train, schedule(false));
    FAIL() << "expected the support check to throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPrecondition);
    EXPECT_NE(std::string(e.what()).find("ParamIndexSpace"),
              std::string::npos)
        << e.what();
  }
}

TEST(RowSparseStep, ShapeMismatchedIndexSpaceIsATypedError) {
  sparse::RowSupport touched(40, 4);
  EXPECT_THROW((void)sparse::ParamRows(
                   &touched, sparse::ParamIndexSpace::kRelation, 40),
               Error);
  EXPECT_THROW((void)sparse::ParamRows(
                   &touched, sparse::ParamIndexSpace::kRelationBlocks, 10),
               Error);
  Table t(8);
  nn::Sgd opt({t.w}, 0.1f);
  opt.set_index_spaces({sparse::ParamIndexSpace::kEntityRelationStacked});
  t.set_grad(false, 0.5f);
  EXPECT_THROW(opt.step(t.touched), Error);
}

TEST(RowSupport, LastStackedRowAndWordBoundaries) {
  for (const index_t n : {1, 63, 64, 100}) {
    for (const index_t r : {1, 2, 64}) {
      sparse::RowSupport s(n, r);
      const std::vector<Triplet> batch = {{n - 1, r - 1, 0}};
      s.add(batch);
      EXPECT_TRUE(s.contains(n + r - 1));
      EXPECT_TRUE(s.contains_relation(r - 1));
      EXPECT_EQ(s.relation_ids(), std::vector<index_t>{r - 1});
      const std::vector<index_t> ents =
          n == 1 ? std::vector<index_t>{0} : std::vector<index_t>{0, n - 1};
      EXPECT_EQ(s.entity_ids(), ents);
      std::vector<index_t> stacked = ents;
      stacked.push_back(n + r - 1);
      EXPECT_EQ(s.stacked_ids(), stacked);
      EXPECT_THROW(s.add(std::vector<Triplet>{{n, 0, 0}}), Error);
      EXPECT_THROW(s.add(std::vector<Triplet>{{0, r, 0}}), Error);
    }
  }
}

TEST(RowSupport, EmptyBatchTouchesNothing) {
  sparse::RowSupport s(40, 4);
  s.add(std::span<const Triplet>{});
  EXPECT_TRUE(s.stacked_ids().empty());
  using sparse::ParamIndexSpace;
  EXPECT_TRUE(
      sparse::ParamRows(&s, ParamIndexSpace::kEntity, 40).rows().empty());
  EXPECT_TRUE(
      sparse::ParamRows(&s, ParamIndexSpace::kRelation, 4).rows().empty());
  EXPECT_TRUE(sparse::ParamRows(&s, ParamIndexSpace::kRelationBlocks, 12)
                  .rows()
                  .empty());
  EXPECT_EQ(sparse::ParamRows(&s, ParamIndexSpace::kDense, 7).rows().size(),
            7u);
  // An empty support updates and clears nothing.
  Table t(8);
  t.touched = s;
  nn::Sgd opt({t.w}, 0.1f);
  opt.set_index_spaces({sparse::ParamIndexSpace::kEntity});
  t.set_grad(true, 0.5f);
  const Matrix before = t.w.value();
  opt.step(t.touched);
  EXPECT_EQ(max_abs_diff(before, t.w.value()), 0.0f);
  EXPECT_GT(t.w.grad().max_abs(), 0.0f);
}

TEST(RowSupport, IdsMatchSortUnique) {
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Triplet> a, b;
    for (int i = 0; i < 50; ++i) {
      a.push_back({static_cast<std::int64_t>(rng.next_below(500)),
                   static_cast<std::int64_t>(rng.next_below(9)),
                   static_cast<std::int64_t>(rng.next_below(500))});
      b.push_back({static_cast<std::int64_t>(rng.next_below(500)),
                   static_cast<std::int64_t>(rng.next_below(9)),
                   static_cast<std::int64_t>(rng.next_below(500))});
    }
    std::vector<index_t> ents, rels;
    for (const auto* batch : {&a, &b}) {
      for (const Triplet& t : *batch) {
        ents.push_back(t.head);
        ents.push_back(t.tail);
        rels.push_back(t.relation);
      }
    }
    std::sort(ents.begin(), ents.end());
    ents.erase(std::unique(ents.begin(), ents.end()), ents.end());
    std::sort(rels.begin(), rels.end());
    rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
    sparse::RowSupport s(500, 9);
    s.add(a);
    s.add(b);
    EXPECT_EQ(s.entity_ids(), ents);
    EXPECT_EQ(s.relation_ids(), rels);
    // The union of the two halves' supports is the support of both.
    sparse::RowSupport sa(500, 9), sb(500, 9), both(500, 9);
    sa.add(a);
    sb.add(b);
    both.assign_union(sa, sb);
    EXPECT_EQ(both.stacked_ids(), s.stacked_ids());
  }
}

TEST(RowSparseStep, RowWiseAxpyRoundsLikeFlatAxpy) {
  // d = 13: each row's last 5 floats take axpy's scalar tail, which a flat
  // axpy over the same rows runs through its vector body instead.
  Rng rng(41);
  for (const bool vec : {false, true}) {
    const index_t rows = 9;
    const index_t d = 13;
    std::vector<float> flat(static_cast<std::size_t>(rows * d));
    std::vector<float> x(flat.size());
    for (float& v : flat) v = rng.uniform(-1.0f, 1.0f);
    for (float& v : x) v = rng.uniform(-1.0f, 1.0f);
    std::vector<float> by_row = flat;
    const float a = -0.0123f;
    simd::axpy(flat.data(), x.data(), a, rows * d, vec);
    for (index_t r = 0; r < rows; ++r)
      simd::axpy(by_row.data() + r * d, x.data() + r * d, a, d, vec);
    EXPECT_EQ(std::memcmp(flat.data(), by_row.data(),
                          flat.size() * sizeof(float)),
              0)
        << "vec=" << vec;
  }
}

}  // namespace
}  // namespace sptx
