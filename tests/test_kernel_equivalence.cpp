// Kernel-equivalence suite: the forward SpMM entry point must equal the
// reference loop, and both backward paths (direct scatter, cached-transpose
// gather) the reference over an explicit transpose, on randomized inputs —
// including empty rows, dims not divisible by the SIMD width, single-row
// matrices, and ±1-only incidence matrices that take the fused register
// paths. The entry points choose their loops from the pool width and the
// work nnz·d, so the tests reach each loop by resizing the pool
// (TaskPool::resize) and by shape, never by naming a kernel. On ±1
// matrices every loop adds each element's terms in the same order, so
// those comparisons are bit for bit. CMake registers this binary three
// times: as-is, with SPTX_NO_SIMD=1 (the scalar mirror) and at
// SPTX_RUNTIME_THREADS=4, so both sides of the runtime cpuid dispatch are
// covered on one machine.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx {
namespace {

constexpr float kTol = 1e-5f;

/// The pool widths the entry points dispatch on: one lane (serial loops)
/// and four (parallel loops, once the work clears the thresholds).
constexpr int kWidths[] = {1, 4};

/// Resizes the shared pool for one scope, restoring the old width after.
class ScopedPoolWidth {
 public:
  explicit ScopedPoolWidth(int width)
      : before_(runtime::TaskPool::instance().threads()) {
    runtime::TaskPool::instance().resize(width);
  }
  ~ScopedPoolWidth() { runtime::TaskPool::instance().resize(before_); }
  ScopedPoolWidth(const ScopedPoolWidth&) = delete;
  ScopedPoolWidth& operator=(const ScopedPoolWidth&) = delete;

 private:
  int before_;
};

bool bits_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.bytes()) == 0);
}

// Random CSR with controllable row occupancy: `fill` is the chance a row
// gets entries at all, so empty rows appear mid-matrix. `unit` restricts
// values to ±1 (the incidence property / fused kernel paths).
Csr random_csr(index_t rows, index_t cols, index_t max_row_nnz, double fill,
               bool unit, Rng& rng) {
  Csr a;
  a.rows = rows;
  a.cols = cols;
  a.row_ptr.resize(static_cast<std::size_t>(rows) + 1, 0);
  for (index_t i = 0; i < rows; ++i) {
    a.row_ptr[static_cast<std::size_t>(i)] =
        static_cast<index_t>(a.values.size());
    if (rng.next_float() < fill) {
      const index_t nnz =
          1 + static_cast<index_t>(rng.next_below(
                  static_cast<std::uint64_t>(max_row_nnz)));
      for (index_t k = 0; k < nnz; ++k) {
        a.col_idx.push_back(static_cast<index_t>(
            rng.next_below(static_cast<std::uint64_t>(cols))));
        a.values.push_back(unit ? (rng.next_float() < 0.5f ? 1.0f : -1.0f)
                                : rng.uniform(-2.0f, 2.0f));
      }
    }
  }
  a.row_ptr[static_cast<std::size_t>(rows)] =
      static_cast<index_t>(a.values.size());
  return a;
}

Matrix random_dense(index_t rows, index_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.fill_uniform(rng, -1, 1);
  return m;
}

Matrix reference_spmm(const Csr& a, const Matrix& x) {
  return matmul(to_dense(a), x);
}

struct Shape {
  index_t rows, cols, max_row_nnz, dim;
  double fill;
};

// Dims deliberately straddle the 8/16-wide SIMD main loops (tails of 1–7)
// and the unroll factor; single-row and empty-heavy matrices included.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> s = {
      {1, 1, 1, 1, 1.0},      // degenerate
      {1, 40, 6, 33, 1.0},    // single row, odd dim
      {17, 9, 4, 7, 0.6},     // dim < SIMD width, empty rows
      {32, 24, 5, 8, 0.5},    // dim == one vector
      {64, 50, 8, 20, 0.7},   // 16-wide main loop + 4-tail
      {40, 30, 3, 128, 0.4},  // training dim, many empty rows
      {128, 64, 12, 65, 0.9}, // long rows hit the variable-nnz path
  };
  return s;
}

TEST(KernelEquivalence, ForwardMatchesDenseReferenceAtEveryWidth) {
  for (int width : kWidths) {
    const ScopedPoolWidth pool(width);
    int seed = 100;
    for (const Shape& sh : shapes()) {
      for (bool unit : {true, false}) {
        Rng rng(static_cast<std::uint64_t>(seed++));
        const Csr a =
            random_csr(sh.rows, sh.cols, sh.max_row_nnz, sh.fill, unit, rng);
        const Matrix x = random_dense(sh.cols, sh.dim, rng);
        const Matrix want = reference_spmm(a, x);
        const Matrix got = spmm_csr(a, x);
        const std::string where = "width=" + std::to_string(width) +
                                  " rows=" + std::to_string(sh.rows) +
                                  " dim=" + std::to_string(sh.dim) +
                                  " unit=" + std::to_string(unit);
        EXPECT_LT(max_abs_diff(got, want), kTol) << where;
        EXPECT_LT(max_abs_diff(spmm_csr_reference(a, x), want), kTol)
            << where;
        if (unit) {
          EXPECT_TRUE(bits_equal(got, spmm_csr_reference(a, x))) << where;
        }
      }
    }
  }
}

// Shapes on both sides of kSpmmParallelMinWork, with empty rows and dims
// that leave 16-, 8- and scalar-loop tails. At width 1 everything runs the
// serial pass; at width 4 the large shapes run the pool row blocks. On ±1
// matrices both equal the reference bit for bit; on general values the two
// loops still equal each other bit for bit (same kernel, same order).
TEST(KernelEquivalence, ForwardIsBitIdenticalOnBothSidesOfParallelThreshold) {
  struct Case {
    index_t rows, cols, max_row_nnz, dim;
    double fill;
  };
  const std::vector<Case> cases = {
      {40, 30, 3, 7, 0.6},        // tiny, d < 8
      {200, 90, 4, 33, 0.5},      // below, 16+16+1 tail
      {6000, 700, 4, 44, 0.7},    // above, 16+16+8+4 tail
      {5000, 900, 3, 128, 0.5},   // above, training dim
      {2048, 513, 6, 600, 0.8},   // above, two column panels (512 + 88)
  };
  int seed = 300;
  bool below = false, above = false;
  for (const Case& c : cases) {
    for (bool unit : {true, false}) {
      Rng rng(static_cast<std::uint64_t>(seed++));
      const Csr a =
          random_csr(c.rows, c.cols, c.max_row_nnz, c.fill, unit, rng);
      const Matrix x = random_dense(c.cols, c.dim, rng);
      const bool parallel_work = a.nnz() * c.dim >= kSpmmParallelMinWork;
      (parallel_work ? above : below) = true;
      const Matrix want = spmm_csr_reference(a, x);
      std::vector<Matrix> got;
      for (int width : kWidths) {
        const ScopedPoolWidth pool(width);
        const profiling::CounterWindow regions(
            profiling::Counter::kRuntimeParallelRegions);
        got.push_back(spmm_csr(a, x));
        const std::string where = "width=" + std::to_string(width) +
                                  " rows=" + std::to_string(c.rows) +
                                  " dim=" + std::to_string(c.dim) +
                                  " unit=" + std::to_string(unit);
        EXPECT_EQ(regions.elapsed() > 0, width > 1 && parallel_work) << where;
        if (unit) {
          EXPECT_TRUE(bits_equal(got.back(), want)) << where;
        } else {
          EXPECT_LT(max_abs_diff(got.back(), want), 1e-4f) << where;
        }
      }
      EXPECT_TRUE(bits_equal(got.front(), got.back()))
          << "serial and parallel loops differ, rows=" << c.rows
          << " dim=" << c.dim << " unit=" << unit;
    }
  }
  EXPECT_TRUE(below && above) << "cases must straddle kSpmmParallelMinWork";
}

TEST(KernelEquivalence, IntoVariantOverwritesStaleOutput) {
  for (int width : kWidths) {
    const ScopedPoolWidth pool(width);
    // 23 x 19 stays serial; 2000 x 200 runs the pool row blocks at width 4.
    for (index_t rows : {23, 2000}) {
      Rng rng(static_cast<std::uint64_t>(7 + rows));
      const index_t d = rows == 23 ? 19 : 200;
      const Csr a = random_csr(rows, 17, 5, 0.5, true, rng);
      const Matrix x = random_dense(17, d, rng);
      Matrix out(rows, d);
      out.fill(321.0f);
      spmm_csr_into(a, x, out);
      EXPECT_TRUE(bits_equal(out, spmm_csr_reference(a, x)))
          << "width=" << width << " rows=" << rows;
    }
  }
}

// The incidence builders produce the 3/2/1-nnz rows the fused register
// paths specialise; check them against the reference end to end.
TEST(KernelEquivalence, IncidenceShapesTakeFusedPathsCorrectly) {
  Rng rng(11);
  const index_t n = 3000, r = 5, d = 24;
  std::vector<Triplet> batch;
  for (int i = 0; i < 12000; ++i) {
    batch.push_back({static_cast<std::int64_t>(rng.next_below(n)),
                     static_cast<std::int64_t>(rng.next_below(r)),
                     static_cast<std::int64_t>(rng.next_below(n))});
  }
  const Matrix e = random_dense(n + r, d, rng);
  const Matrix en = random_dense(n, d, rng);

  const Csr hrt = build_hrt_incidence_csr(batch, n, r);   // 3 nnz/row
  const Csr ht = build_ht_incidence_csr(batch, n);        // 2 nnz/row
  const Csr sel =
      build_entity_selection_csr(batch, n, TripletSlot::kHead);  // 1 nnz/row
  for (int width : kWidths) {
    const ScopedPoolWidth pool(width);
    EXPECT_TRUE(bits_equal(spmm_csr(hrt, e), spmm_csr_reference(hrt, e)));
    EXPECT_TRUE(bits_equal(spmm_csr(ht, en), spmm_csr_reference(ht, en)));
    EXPECT_TRUE(bits_equal(spmm_csr(sel, en), spmm_csr_reference(sel, en)));
    EXPECT_LT(max_abs_diff(spmm_csr(hrt, e), reference_spmm(hrt, e)), kTol);
  }
}

TEST(KernelEquivalence, BothBackwardPathsAgreeWithDenseTranspose) {
  // The listed shapes stay on the scatter; the last one is big enough for
  // the gather at width 4.
  std::vector<Shape> all = shapes();
  all.push_back({2000, 300, 4, 64, 0.7});
  bool scattered = false, gathered = false;
  for (int width : kWidths) {
    const ScopedPoolWidth pool(width);
    int seed = 500;
    for (const Shape& sh : all) {
      Rng rng(static_cast<std::uint64_t>(seed++));
      const Csr a =
          random_csr(sh.rows, sh.cols, sh.max_row_nnz, sh.fill, true, rng);
      const Matrix g = random_dense(sh.rows, sh.dim, rng);
      const Matrix want = matmul_tn(to_dense(a), g);
      const bool gather = spmm_backward_uses_transpose(a, sh.dim);
      (gather ? gathered : scattered) = true;
      if (width == 1) {
        EXPECT_FALSE(gather) << "one lane must scatter";
      }
      const std::string where = "width=" + std::to_string(width) +
                                " rows=" + std::to_string(sh.rows) +
                                (gather ? " gather" : " scatter");
      Matrix dx(sh.cols, sh.dim);
      spmm_csr_transposed_accumulate(a, g, dx);
      EXPECT_LT(max_abs_diff(dx, want), kTol) << where;
      EXPECT_TRUE(bits_equal(dx, spmm_csr_reference(transpose(a), g)))
          << where;
      // Accumulation: a second call doubles the gradient.
      spmm_csr_transposed_accumulate(a, g, dx);
      Matrix doubled = want;
      doubled.scale_(2.0f);
      EXPECT_LT(max_abs_diff(dx, doubled), kTol) << where;
    }
  }
  EXPECT_TRUE(scattered && gathered) << "both backward paths must run";
}

// ---- nnz-balanced transposed backward ------------------------------------
//
// The gather backward cuts its tasks by Aᵀ's cumulative nonzeros and splits
// a heavy Aᵀ row into column panels. That may move work between lanes but
// not change one bit: on ±1 matrices every path adds each dX element's
// terms in the same order, so the balanced gather equals the serial scatter
// and the reference over an explicit transpose exactly.

// hrt incidence of `m` random triples over `n` entities and 3 relations,
// with relation 0 on ~60% of the triples: Aᵀ's row for relation 0 holds
// 0.6·m of the 3·m nonzeros — more than one task at any pool width once
// m ≥ 2000 (tasks hold max(1024, nnz / (8·lanes)) nonzeros), so for d > 16
// it is split into column panels.
Csr skewed_hrt(index_t m, index_t n, Rng& rng) {
  std::vector<Triplet> batch;
  for (index_t i = 0; i < m; ++i) {
    const std::int64_t rel =
        rng.next_float() < 0.6f
            ? 0
            : 1 + static_cast<std::int64_t>(rng.next_below(2));
    batch.push_back({static_cast<std::int64_t>(rng.next_below(n)), rel,
                     static_cast<std::int64_t>(rng.next_below(n))});
  }
  return build_hrt_incidence_csr(batch, n, 3);
}

TEST(KernelEquivalence, BalancedBackwardIsBitIdenticalToScatterAndNaive) {
  int seed = 900;
  std::int64_t gathered = 0;
  for (index_t d : {8, 20, 100, 128}) {
    std::vector<Csr> cases;
    for (index_t m : {0, 1, 300, 6000}) {
      Rng rng(static_cast<std::uint64_t>(seed++));
      cases.push_back(skewed_hrt(m, 500, rng));
    }
    {
      // A general ±1 matrix whose column 3 is far heavier than the rest.
      Rng rng(static_cast<std::uint64_t>(seed++));
      Csr a = random_csr(4000, 64, 4, 0.8, true, rng);
      for (index_t& c : a.col_idx) {
        if (rng.next_float() < 0.5f) c = 3;
      }
      cases.push_back(std::move(a));
    }
    for (const Csr& a : cases) {
      Rng rng(static_cast<std::uint64_t>(seed++));
      const Matrix g = random_dense(a.rows, d, rng);
      const Matrix start = random_dense(a.cols, d, rng);
      const Matrix naive = spmm_csr_reference(transpose(a), g);
      for (bool from_zero : {true, false}) {
        const Matrix init = from_zero ? Matrix(a.cols, d) : start;
        // Width 1 always scatters; width 4 gathers once the work clears
        // the heuristic's thresholds.
        Matrix scatter = init;
        {
          const ScopedPoolWidth pool(1);
          ASSERT_FALSE(spmm_backward_uses_transpose(a, d));
          spmm_csr_transposed_accumulate(a, g, scatter);
        }
        Matrix wide = init;
        bool gather = false;
        {
          const ScopedPoolWidth pool(4);
          gather = spmm_backward_uses_transpose(a, d);
          spmm_csr_transposed_accumulate(a, g, wide);
        }
        gathered += gather ? 1 : 0;
        const std::string where = "d=" + std::to_string(d) +
                                  " rows=" + std::to_string(a.rows) +
                                  (gather ? " gather" : " scatter");
        EXPECT_TRUE(bits_equal(wide, scatter)) << where;
        if (from_zero) {
          EXPECT_TRUE(bits_equal(wide, naive)) << where;
        }
      }
    }
  }
  // The heavy cases (m = 6000 at d >= 20, m = 300 at d >= 100, the skewed
  // general matrix at d >= 20) must have exercised the balanced gather.
  EXPECT_GE(gathered, 16);
}

// The backward's dispatch reads only the pool width and the shape.
TEST(KernelEquivalence, BackwardPathFollowsPoolWidthAndWork) {
  Rng rng(42);
  const Csr small = random_csr(4, 4, 2, 1.0, true, rng);
  const Csr big = random_csr(4096, 512, 8, 1.0, true, rng);
  for (index_t dim : {64, 128, 1024}) {
    {
      const ScopedPoolWidth pool(1);
      EXPECT_FALSE(spmm_backward_uses_transpose(small, dim));
      EXPECT_FALSE(spmm_backward_uses_transpose(big, dim));
    }
    const ScopedPoolWidth pool(4);
    EXPECT_FALSE(spmm_backward_uses_transpose(small, dim));
    EXPECT_TRUE(spmm_backward_uses_transpose(big, dim));
  }
}

TEST(KernelEquivalence, UnitValueCacheDetectsIncidence) {
  Rng rng(44);
  const Csr unit = random_csr(16, 8, 3, 0.9, true, rng);
  const Csr general = random_csr(16, 8, 3, 0.9, false, rng);
  EXPECT_TRUE(unit.unit_values());
  EXPECT_FALSE(general.unit_values());
  // Cached transpose matches the free-function transpose.
  EXPECT_LT(max_abs_diff(to_dense(unit.transposed()), to_dense(transpose(unit))),
            0.0f + 1e-7f);
  EXPECT_TRUE(unit.transposed().unit_values());
}

}  // namespace
}  // namespace sptx
