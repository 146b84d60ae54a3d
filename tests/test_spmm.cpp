// Tests for the SpMM entry points, including the Appendix G backward
// property.
#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx {
namespace {

Coo random_coo(index_t rows, index_t cols, index_t nnz, Rng& rng) {
  Coo coo;
  coo.rows = rows;
  coo.cols = cols;
  for (index_t k = 0; k < nnz; ++k) {
    coo.push(static_cast<index_t>(
                 rng.next_below(static_cast<std::uint64_t>(rows))),
             static_cast<index_t>(
                 rng.next_below(static_cast<std::uint64_t>(cols))),
             rng.uniform(-1, 1));
  }
  return coo;
}

Matrix random_dense(index_t rows, index_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.fill_uniform(rng, -1, 1);
  return m;
}

// Reference: dense(A) · X with the tested GEMM.
Matrix reference_spmm(const Csr& a, const Matrix& x) {
  return matmul(to_dense(a), x);
}

struct SpmmCase {
  int seed;
  index_t rows, cols, nnz, dim;
};

class SpmmTest : public ::testing::TestWithParam<SpmmCase> {};

// spmm_csr picks its loop from the pool width and nnz·d, so each case runs
// at width 1 (serial pass) and width 4 (pool row blocks once nnz·d reaches
// kSpmmParallelMinWork).
TEST_P(SpmmTest, MatchesDenseReferenceAtEveryPoolWidth) {
  const SpmmCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.seed));
  const Csr a = coo_to_csr(random_coo(c.rows, c.cols, c.nnz, rng));
  const Matrix x = random_dense(c.cols, c.dim, rng);
  const Matrix want = reference_spmm(a, x);
  auto& pool = runtime::TaskPool::instance();
  const int width_before = pool.threads();
  for (int width : {1, 4}) {
    pool.resize(width);
    EXPECT_LT(max_abs_diff(spmm_csr(a, x), want), 1e-4f) << "width " << width;
  }
  pool.resize(width_before);
}

TEST_P(SpmmTest, ReferenceMatchesDenseReference) {
  const SpmmCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.seed + 1000));
  const Csr a = coo_to_csr(random_coo(c.rows, c.cols, c.nnz, rng));
  const Matrix x = random_dense(c.cols, c.dim, rng);
  EXPECT_LT(max_abs_diff(spmm_csr_reference(a, x), reference_spmm(a, x)),
            1e-4f);
}

std::vector<SpmmCase> spmm_cases() {
  return {
      {0, 1, 1, 1, 1},           // degenerate
      {1, 16, 8, 40, 5},         // odd dim (tail loop)
      {2, 16, 8, 40, 8},         // multiple of unroll
      {3, 64, 32, 200, 33},      // tail + bigger
      {4, 7, 100, 300, 16},      // wide, duplicates
      {5, 512, 64, 4096, 72},    // nnz·d above kSpmmParallelMinWork
  };
}

INSTANTIATE_TEST_SUITE_P(Shapes, SpmmTest, ::testing::ValuesIn(spmm_cases()));

TEST(Spmm, ShapeMismatchThrows) {
  Rng rng(9);
  const Csr a = coo_to_csr(random_coo(4, 6, 8, rng));
  const Matrix wrong = random_dense(5, 3, rng);
  EXPECT_THROW(spmm_csr(a, wrong), Error);
}

TEST(Spmm, IntoVariantWritesCallerBuffer) {
  Rng rng(10);
  const Csr a = coo_to_csr(random_coo(5, 7, 12, rng));
  const Matrix x = random_dense(7, 4, rng);
  Matrix out(5, 4);
  out.fill(123.0f);  // stale garbage must be overwritten
  spmm_csr_into(a, x, out);
  EXPECT_LT(max_abs_diff(out, reference_spmm(a, x)), 1e-4f);
}

// ---- Appendix G: dX = Aᵀ·g is itself an SpMM --------------------------

class SpmmBackwardTest : public ::testing::TestWithParam<int> {};

TEST_P(SpmmBackwardTest, AccumulateEqualsReferenceOverTranspose) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Csr a = coo_to_csr(random_coo(20, 15, 60, rng));
  const Matrix g = random_dense(20, 9, rng);
  Matrix dx(15, 9);
  spmm_csr_transposed_accumulate(a, g, dx);
  const Matrix expected = spmm_csr_reference(transpose(a), g);
  EXPECT_LT(max_abs_diff(dx, expected), 1e-4f);
}

TEST_P(SpmmBackwardTest, TransposedEqualsDenseTransposeProduct) {
  Rng rng(static_cast<std::uint64_t>(GetParam() + 50));
  const Csr a = coo_to_csr(random_coo(12, 10, 30, rng));
  const Matrix g = random_dense(12, 6, rng);
  Matrix dx(10, 6);
  spmm_csr_transposed_accumulate(a, g, dx);
  EXPECT_LT(max_abs_diff(dx, matmul_tn(to_dense(a), g)), 1e-4f);
}

TEST_P(SpmmBackwardTest, AccumulateAddsOntoExisting) {
  Rng rng(static_cast<std::uint64_t>(GetParam() + 99));
  const Csr a = coo_to_csr(random_coo(8, 6, 16, rng));
  const Matrix g = random_dense(8, 3, rng);
  Matrix dx(6, 3);
  dx.fill(1.0f);
  spmm_csr_transposed_accumulate(a, g, dx);
  Matrix expected = spmm_csr_reference(transpose(a), g);
  for (index_t i = 0; i < expected.size(); ++i)
    expected.data()[i] += 1.0f;
  EXPECT_LT(max_abs_diff(dx, expected), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmmBackwardTest, ::testing::Range(0, 6));

// ---- The §4.2 semantics: incidence SpMM computes the batch expression ----

TEST(Spmm, HtIncidenceComputesHeadMinusTail) {
  Rng rng(77);
  const index_t n = 12, d = 6;
  const Matrix e = random_dense(n, d, rng);
  std::vector<Triplet> batch = {{0, 0, 5}, {3, 0, 3}, {11, 0, 0}};
  const Csr a = build_ht_incidence_csr(batch, n);
  const Matrix ht = spmm_csr(a, e);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (index_t j = 0; j < d; ++j) {
      EXPECT_NEAR(ht.at(static_cast<index_t>(i), j),
                  e.at(batch[i].head, j) - e.at(batch[i].tail, j), 1e-5f);
    }
  }
}

TEST(Spmm, HrtIncidenceComputesHeadPlusRelMinusTail) {
  Rng rng(78);
  const index_t n = 10, r = 4, d = 5;
  const Matrix e = random_dense(n + r, d, rng);
  std::vector<Triplet> batch = {{2, 3, 7}, {9, 0, 9}, {0, 1, 1}};
  const Csr a = build_hrt_incidence_csr(batch, n, r);
  const Matrix hrt = spmm_csr(a, e);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (index_t j = 0; j < d; ++j) {
      const float expected = e.at(batch[i].head, j) +
                             e.at(n + batch[i].relation, j) -
                             e.at(batch[i].tail, j);
      EXPECT_NEAR(hrt.at(static_cast<index_t>(i), j), expected, 1e-5f);
    }
  }
}

}  // namespace
}  // namespace sptx
