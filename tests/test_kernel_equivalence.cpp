// Kernel-equivalence suite: every forward SpMM kernel (naive / simd /
// tiled_parallel / auto) and both backward paths
// (direct scatter, cached-transpose gather) must agree within 1e-5 on
// randomized inputs — including empty rows, dims not divisible by the SIMD
// width, single-row matrices, and ±1-only incidence matrices that take the
// fused register paths. CMake registers this binary twice: once as-is and
// once with SPTX_NO_SIMD=1 so both sides of the runtime cpuid dispatch are
// covered on one machine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/common/cpu_features.hpp"
#include "src/common/rng.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx {
namespace {

constexpr float kTol = 1e-5f;

const std::vector<SpmmKernel>& all_kernels() {
  static const std::vector<SpmmKernel> kernels = {
      SpmmKernel::kNaive,
      SpmmKernel::kSimd,
      SpmmKernel::kTiledParallel,
      SpmmKernel::kAuto,
  };
  return kernels;
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

TEST(KernelEquivalence, AllForwardKernelsMatchDenseReference) {
  int seed = 100;
  for (const Shape& sh : shapes()) {
    for (bool unit : {true, false}) {
      Rng rng(static_cast<std::uint64_t>(seed++));
      const Csr a =
          random_csr(sh.rows, sh.cols, sh.max_row_nnz, sh.fill, unit, rng);
      const Matrix x = random_dense(sh.cols, sh.dim, rng);
      const Matrix want = reference_spmm(a, x);
      for (SpmmKernel k : all_kernels()) {
        const Matrix got = spmm_csr(a, x, k);
        EXPECT_LT(max_abs_diff(got, want), kTol)
            << "kernel " << static_cast<int>(k) << " rows=" << sh.rows
            << " dim=" << sh.dim << " unit=" << unit;
      }
      Matrix coo_out = spmm_coo(csr_to_coo(a), x);
      EXPECT_LT(max_abs_diff(coo_out, want), kTol);
    }
  }
}

TEST(KernelEquivalence, IntoVariantOverwritesStaleOutput) {
  Rng rng(7);
  const Csr a = random_csr(23, 17, 5, 0.5, true, rng);
  const Matrix x = random_dense(17, 19, rng);
  const Matrix want = reference_spmm(a, x);
  for (SpmmKernel k : all_kernels()) {
    Matrix out(23, 19);
    out.fill(321.0f);
    spmm_csr_into(a, x, out, k);
    EXPECT_LT(max_abs_diff(out, want), kTol)
        << "kernel " << static_cast<int>(k);
  }
}

// The incidence builders produce the 3/2/1-nnz rows the fused register
// paths specialise; check them against the dense reference end to end.
TEST(KernelEquivalence, IncidenceShapesTakeFusedPathsCorrectly) {
  Rng rng(11);
  const index_t n = 30, r = 5, d = 24;
  std::vector<Triplet> batch;
  for (int i = 0; i < 40; ++i) {
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
  for (SpmmKernel k : all_kernels()) {
    EXPECT_LT(max_abs_diff(spmm_csr(hrt, e, k), reference_spmm(hrt, e)), kTol);
    EXPECT_LT(max_abs_diff(spmm_csr(ht, en, k), reference_spmm(ht, en)), kTol);
    EXPECT_LT(max_abs_diff(spmm_csr(sel, en, k), reference_spmm(sel, en)),
              kTol);
  }
}

TEST(KernelEquivalence, BothBackwardPathsAgreeWithDenseTranspose) {
  int seed = 500;
  for (const Shape& sh : shapes()) {
    Rng rng(static_cast<std::uint64_t>(seed++));
    const Csr a =
        random_csr(sh.rows, sh.cols, sh.max_row_nnz, sh.fill, true, rng);
    const Matrix g = random_dense(sh.rows, sh.dim, rng);
    const Matrix want = matmul_tn(to_dense(a), g);
    for (const char* mode : {"scatter", "transpose"}) {
      // Registry override (setenv would be a no-op: the process snapshot is
      // latched at first use).
      config::ScopedOverride force("SPTX_SPMM_BACKWARD", mode);
      EXPECT_EQ(spmm_backward_uses_transpose(a, sh.dim),
                std::string_view(mode) == "transpose")
          << "override not honoured for " << mode;
      Matrix dx(sh.cols, sh.dim);
      spmm_csr_transposed_accumulate(a, g, dx);
      EXPECT_LT(max_abs_diff(dx, want), kTol)
          << "backward mode " << mode << " rows=" << sh.rows;
      // Accumulation: a second call doubles the gradient.
      spmm_csr_transposed_accumulate(a, g, dx);
      Matrix doubled = want;
      doubled.scale_(2.0f);
      EXPECT_LT(max_abs_diff(dx, doubled), kTol);
    }
    EXPECT_LT(max_abs_diff(spmm_csr_transposed_explicit(a, g), want), kTol);
  }
}

// ---- nnz-balanced transposed backward ------------------------------------
//
// The gather backward cuts its tasks by Aᵀ's cumulative nonzeros and splits
// a heavy Aᵀ row into column panels. That may move work between lanes but
// not change one bit: on ±1 matrices every path adds each dX element's
// terms in the same order, so the balanced gather equals the serial scatter
// and kNaive over an explicit transpose exactly.

bool bits_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.bytes()) == 0);
}

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
  auto& pool = runtime::TaskPool::instance();
  const int width_before = pool.threads();
  int seed = 900;
  for (int width : {1, 4}) {
    pool.resize(width);
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
        const std::string where = "width=" + std::to_string(width) +
                                  " d=" + std::to_string(d) +
                                  " rows=" + std::to_string(a.rows);
        Rng rng(static_cast<std::uint64_t>(seed++));
        const Matrix g = random_dense(a.rows, d, rng);
        const Matrix start = random_dense(a.cols, d, rng);
        const Matrix naive = spmm_csr(transpose(a), g, SpmmKernel::kNaive);
        for (bool from_zero : {true, false}) {
          Matrix scatter = from_zero ? Matrix(a.cols, d) : start;
          Matrix balanced = scatter;
          {
            config::ScopedOverride force("SPTX_SPMM_BACKWARD", "scatter");
            spmm_csr_transposed_accumulate(a, g, scatter);
          }
          {
            config::ScopedOverride force("SPTX_SPMM_BACKWARD", "transpose");
            spmm_csr_transposed_accumulate(a, g, balanced);
          }
          EXPECT_TRUE(bits_equal(balanced, scatter)) << where;
          if (from_zero) {
            EXPECT_TRUE(bits_equal(balanced, naive)) << where;
          }
        }
      }
    }
  }
  pool.resize(width_before);
}

TEST(KernelEquivalence, AutoResolvesToConcreteKernel) {
  Rng rng(42);
  const Csr small = random_csr(4, 4, 2, 1.0, true, rng);
  const Csr big = random_csr(4096, 512, 8, 1.0, true, rng);
  for (index_t dim : {8, 128, 1024}) {
    EXPECT_NE(spmm_auto_kernel(small, dim), SpmmKernel::kAuto);
    EXPECT_NE(spmm_auto_kernel(big, dim), SpmmKernel::kAuto);
  }
  // With or without SIMD the auto choice is one of the two engine kernels
  // (without AVX2+FMA they run their scalar mirror); never the oracle.
  for (index_t dim : {8, 128, 1024}) {
    for (const Csr* a : {&small, &big}) {
      const SpmmKernel k = spmm_auto_kernel(*a, dim);
      EXPECT_TRUE(k == SpmmKernel::kSimd || k == SpmmKernel::kTiledParallel)
          << "dim=" << dim << " kernel " << static_cast<int>(k);
    }
  }
}

TEST(KernelEquivalence, AutoEnvOverrideForcesKernel) {
  Rng rng(43);
  const Csr a = random_csr(64, 32, 4, 0.8, true, rng);
  // The dispatch consults the installed runtime-config snapshot: a
  // programmatic override forces a kernel...
  RuntimeConfig rc = RuntimeConfig::from_env();
  rc.set("SPTX_SPMM_KERNEL", "simd");
  config::install(rc);
  EXPECT_EQ(spmm_auto_kernel(a, 128), SpmmKernel::kSimd);
  rc.set("SPTX_SPMM_KERNEL", "NAIVE");  // flags/enums are case-insensitive
  config::install(rc);
  EXPECT_EQ(spmm_auto_kernel(a, 128), SpmmKernel::kNaive);
  // ...an invalid name is rejected at set() time instead of being silently
  // dropped...
  EXPECT_THROW(rc.set("SPTX_SPMM_KERNEL", "not-a-kernel"), Error);
  for (const char* removed : {"unrolled", "tiled", "parallel"}) {
    EXPECT_THROW(rc.set("SPTX_SPMM_KERNEL", removed), Error) << removed;
  }
  // ...and the environment path works through a fresh snapshot.
  setenv("SPTX_SPMM_KERNEL", "simd", 1);
  config::install(RuntimeConfig::from_env());
  EXPECT_EQ(spmm_auto_kernel(a, 128), SpmmKernel::kSimd);
  unsetenv("SPTX_SPMM_KERNEL");
  config::install(RuntimeConfig::from_env());
  EXPECT_NE(spmm_auto_kernel(a, 128), SpmmKernel::kAuto);
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
