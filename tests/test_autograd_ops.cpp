// Finite-difference gradient checks for every differentiable op.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "gradcheck.hpp"
#include "src/autograd/ops.hpp"
#include "src/common/rng.hpp"
#include "src/runtime/parallel.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx {
namespace {

using autograd::Variable;
using testing::expect_gradient_matches;

Matrix random_dense(index_t rows, index_t cols, std::uint64_t seed,
                    float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.fill_uniform(rng, lo, hi);
  return m;
}

TEST(OpGrad, Add) {
  Matrix other = random_dense(3, 4, 1);
  expect_gradient_matches(random_dense(3, 4, 2), [&](Variable& p) {
    Variable c = Variable::leaf(other, false);
    return autograd::sum_all(autograd::add(p, c));
  });
}

TEST(OpGrad, SubBothSides) {
  Matrix other = random_dense(3, 4, 3);
  expect_gradient_matches(random_dense(3, 4, 4), [&](Variable& p) {
    Variable c = Variable::leaf(other, false);
    // p appears on both sides: sub(p, c) + sub(c, p) should cancel to
    // constant... use sub(p, c) only plus p again via scale for coverage.
    return autograd::sum_all(
        autograd::add(autograd::sub(p, c), autograd::scale(p, 0.5f)));
  });
}

TEST(OpGrad, MulElementwise) {
  Matrix other = random_dense(2, 5, 5);
  expect_gradient_matches(random_dense(2, 5, 6), [&](Variable& p) {
    Variable c = Variable::leaf(other, false);
    return autograd::sum_all(autograd::mul(p, c));
  });
}

TEST(OpGrad, MulWithSelf) {
  // d(x²)/dx = 2x — both parents are the same node.
  expect_gradient_matches(random_dense(2, 3, 7), [&](Variable& p) {
    return autograd::sum_all(autograd::mul(p, p));
  });
}

TEST(OpGrad, RowL2) {
  // Keep values away from 0 so the norm is smooth.
  expect_gradient_matches(random_dense(4, 6, 8, 0.5f, 1.5f),
                          [&](Variable& p) {
                            return autograd::sum_all(autograd::row_l2(p));
                          });
}

TEST(OpGrad, RowL1) {
  // Away from the |x| kink at 0.
  expect_gradient_matches(random_dense(4, 6, 9, 0.2f, 1.0f),
                          [&](Variable& p) {
                            return autograd::sum_all(autograd::row_l1(p));
                          });
}

TEST(OpGrad, RowSquaredL2) {
  expect_gradient_matches(random_dense(3, 5, 10), [&](Variable& p) {
    return autograd::sum_all(autograd::row_squared_l2(p));
  });
}

TEST(OpGrad, TorusSquaredL2) {
  // Stay away from the wraparound kinks at frac = 0 and frac = 1/2.
  expect_gradient_matches(random_dense(3, 4, 11, 0.1f, 0.4f),
                          [&](Variable& p) {
                            return autograd::sum_all(
                                autograd::row_squared_l2_torus(p));
                          });
  expect_gradient_matches(random_dense(3, 4, 12, 0.6f, 0.9f),
                          [&](Variable& p) {
                            return autograd::sum_all(
                                autograd::row_squared_l2_torus(p));
                          });
}

TEST(OpGrad, TorusL1) {
  expect_gradient_matches(random_dense(2, 5, 13, 0.1f, 0.4f),
                          [&](Variable& p) {
                            return autograd::sum_all(
                                autograd::row_l1_torus(p));
                          });
}

TEST(OpGrad, RowDotBothParents) {
  Matrix other = random_dense(4, 3, 14);
  expect_gradient_matches(random_dense(4, 3, 15), [&](Variable& p) {
    Variable c = Variable::leaf(other, false);
    Variable both = autograd::add(autograd::row_dot(p, c),
                                  autograd::row_dot(c, p));
    return autograd::sum_all(both);
  });
}

TEST(OpGrad, ScaleRowsColumnParent) {
  Matrix x = random_dense(4, 3, 16);
  expect_gradient_matches(random_dense(4, 1, 17), [&](Variable& p) {
    Variable c = Variable::leaf(x, false);
    return autograd::sum_all(autograd::scale_rows(p, c));
  });
}

TEST(OpGrad, ScaleRowsMatrixParent) {
  Matrix col = random_dense(4, 1, 18);
  expect_gradient_matches(random_dense(4, 3, 19), [&](Variable& p) {
    Variable c = Variable::leaf(col, false);
    return autograd::sum_all(autograd::scale_rows(c, p));
  });
}

TEST(OpGrad, SpmmDenseOperand) {
  std::vector<Triplet> batch = {{0, 1, 3}, {2, 0, 1}, {4, 1, 0}};
  auto a = std::make_shared<Csr>(build_hrt_incidence_csr(batch, 5, 2));
  expect_gradient_matches(random_dense(7, 4, 20), [&](Variable& p) {
    return autograd::sum_all(autograd::spmm(a, p));
  });
}

TEST(OpGrad, SpmmWithDownstreamNorm) {
  // The full SpTransE forward shape: spmm → row_l2 → sum.
  std::vector<Triplet> batch = {{0, 0, 1}, {2, 1, 3}};
  auto a = std::make_shared<Csr>(build_hrt_incidence_csr(batch, 4, 2));
  expect_gradient_matches(
      random_dense(6, 5, 21, 0.3f, 1.0f), [&](Variable& p) {
        return autograd::sum_all(autograd::row_l2(autograd::spmm(a, p)));
      });
}

TEST(OpGrad, Gather) {
  auto idx = std::make_shared<std::vector<index_t>>(
      std::vector<index_t>{0, 2, 2, 1});  // duplicate index: grads must sum
  expect_gradient_matches(random_dense(3, 4, 22), [&](Variable& p) {
    return autograd::sum_all(autograd::gather(p, idx));
  });
}

TEST(OpGrad, RelationProjectBothParents) {
  const index_t r = 2, dr = 3, de = 4, m = 5;
  auto rel = std::make_shared<std::vector<index_t>>(
      std::vector<index_t>{0, 1, 0, 1, 1});
  Matrix x = random_dense(m, de, 23);
  expect_gradient_matches(random_dense(r * dr, de, 24), [&](Variable& p) {
    Variable c = Variable::leaf(x, false);
    return autograd::sum_all(autograd::relation_project(p, c, rel, dr));
  });
  Matrix proj = random_dense(r * dr, de, 25);
  expect_gradient_matches(random_dense(m, de, 26), [&](Variable& p) {
    Variable c = Variable::leaf(proj, false);
    return autograd::sum_all(autograd::relation_project(c, p, rel, dr));
  });
}

TEST(OpGrad, MarginRankingLoss) {
  // Positive and negative scores chosen so some pairs are active and some
  // are clamped at zero (and no pair sits exactly on the hinge kink).
  Matrix neg{{0.9f}, {3.0f}, {0.2f}, {2.0f}};
  expect_gradient_matches(
      Matrix{{1.0f}, {1.0f}, {1.0f}, {1.0f}},
      [&](Variable& p) {
        Variable n = Variable::leaf(neg, false);
        return autograd::margin_ranking_loss(p, n, 0.5f);
      });
}

TEST(OpGrad, DistMultScore) {
  auto batch = std::make_shared<std::vector<Triplet>>(
      std::vector<Triplet>{{0, 0, 2}, {1, 1, 0}, {2, 0, 2}});
  expect_gradient_matches(random_dense(5, 4, 27), [&](Variable& p) {
    return autograd::sum_all(autograd::distmult_score(p, batch, 3));
  });
}

TEST(OpGrad, ComplExScore) {
  auto batch = std::make_shared<std::vector<Triplet>>(
      std::vector<Triplet>{{0, 1, 2}, {2, 0, 1}});
  expect_gradient_matches(random_dense(5, 6, 28), [&](Variable& p) {
    return autograd::sum_all(autograd::complex_score(p, batch, 3));
  });
}

TEST(OpGrad, MarginLossEndToEndTransEShape) {
  // Full sparse TransE loss: two SpMMs through the same embedding leaf.
  std::vector<Triplet> pos = {{0, 0, 1}, {2, 1, 3}};
  std::vector<Triplet> neg = {{0, 0, 3}, {1, 1, 3}};
  auto ap = std::make_shared<Csr>(build_hrt_incidence_csr(pos, 4, 2));
  auto an = std::make_shared<Csr>(build_hrt_incidence_csr(neg, 4, 2));
  expect_gradient_matches(
      random_dense(6, 4, 29, 0.3f, 1.0f), [&](Variable& p) {
        Variable dp = autograd::row_l2(autograd::spmm(ap, p));
        Variable dn = autograd::row_l2(autograd::spmm(an, p));
        return autograd::margin_ranking_loss(dp, dn, 0.5f);
      },
      1e-3f, 5e-2f);
}

// ---- Row-parallel norms ---------------------------------------------------
//
// The row norms and their backward rules run row chunks on the pool. Each
// row's loop is the serial one, so value and gradient must equal a plain
// serial loop bit for bit at any pool width, on both sides of the inline
// cutoff (an operand of at most runtime::kRowTaskFloats floats runs inline).

enum class Norm { kL1, kL2, kSquaredL2 };

bool bits_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.bytes()) == 0);
}

// Serial value and gradient of loss = Σ_i w_i · norm(x_i), written out the
// way the ops compute them.
void serial_norm(Norm norm, const Matrix& x, const Matrix& w, Matrix& value,
                 Matrix& grad) {
  value = Matrix(x.rows(), 1);
  grad = Matrix(x.rows(), x.cols());
  for (index_t i = 0; i < x.rows(); ++i) {
    const float* r = x.row(i);
    float acc = 0.0f;
    if (norm == Norm::kL1) {
      for (index_t j = 0; j < x.cols(); ++j) acc += std::fabs(r[j]);
    } else {
      for (index_t j = 0; j < x.cols(); ++j) acc += r[j] * r[j];
    }
    value.at(i, 0) = norm == Norm::kL2 ? std::sqrt(acc) : acc;
    const float gi = w.at(i, 0);
    float* drow = grad.row(i);
    for (index_t j = 0; j < x.cols(); ++j) {
      switch (norm) {
        case Norm::kL1:
          drow[j] += gi * (r[j] > 0.0f ? 1.0f : r[j] < 0.0f ? -1.0f : 0.0f);
          break;
        case Norm::kL2:
          drow[j] += gi / std::max(value.at(i, 0), 1e-12f) * r[j];
          break;
        case Norm::kSquaredL2:
          drow[j] += 2.0f * gi * r[j];
          break;
      }
    }
  }
}

TEST(RowParallelNorms, ForwardAndBackwardMatchSerialLoopsBitForBit) {
  auto& pool = runtime::TaskPool::instance();
  const int width_before = pool.threads();
  const index_t d = 100;
  const index_t per_task = runtime::kRowTaskFloats / d;
  std::uint64_t seed = 4000;
  for (int width : {1, 4}) {
    pool.resize(width);
    for (index_t rows :
         {index_t{1}, per_task, per_task + 1, 7 * per_task + 3}) {
      const Matrix x = random_dense(rows, d, seed++);
      const Matrix w = random_dense(rows, 1, seed++);
      for (Norm norm : {Norm::kL1, Norm::kL2, Norm::kSquaredL2}) {
        const std::string where = "width=" + std::to_string(width) +
                                  " rows=" + std::to_string(rows) +
                                  " norm=" +
                                  std::to_string(static_cast<int>(norm));
        Variable p = Variable::leaf(x, true);
        Variable y = norm == Norm::kL1   ? autograd::row_l1(p)
                     : norm == Norm::kL2 ? autograd::row_l2(p)
                                         : autograd::row_squared_l2(p);
        autograd::sum_all(autograd::mul(y, Variable::leaf(w, false)))
            .backward();
        Matrix value, grad;
        serial_norm(norm, x, w, value, grad);
        EXPECT_TRUE(bits_equal(y.value(), value)) << where;
        EXPECT_TRUE(bits_equal(p.grad(), grad)) << where;
        const Matrix direct = norm == Norm::kL1   ? row_l1_norm(x)
                              : norm == Norm::kL2 ? row_l2_norm(x)
                                                  : row_squared_l2(x);
        EXPECT_TRUE(bits_equal(direct, value)) << where;
      }
    }
  }
  pool.resize(width_before);
}

}  // namespace
}  // namespace sptx
