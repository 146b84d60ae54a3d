// Workspace buffer-pool tests, including the PR's acceptance property: in
// steady-state training the hot loop performs zero heap allocations —
// MemoryTracker::total_allocs() stays flat across epochs once the first
// batch has warmed the pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/model.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/spmm.hpp"
#include "src/tensor/matrix.hpp"
#include "src/tensor/memory_tracker.hpp"
#include "src/tensor/workspace.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

TEST(Workspace, DisabledByDefaultEveryAllocationHitsTheAllocator) {
  auto& tracker = MemoryTracker::instance();
  const std::int64_t before = tracker.total_allocs();
  const std::int64_t live = tracker.current();
  {
    Matrix a(8, 8);
  }
  {
    Matrix b(8, 8);
  }
  EXPECT_EQ(tracker.total_allocs() - before, 2);
  EXPECT_EQ(tracker.current(), live);  // frees really freed
}

TEST(Workspace, ScopeRecyclesSameCapacityBuffers) {
  auto& tracker = MemoryTracker::instance();
  const std::int64_t live_before = tracker.current();
  {
    ScopedWorkspace ws;
    const std::int64_t before = tracker.total_allocs();
    { Matrix a(16, 16); }
    { Matrix b(16, 16); }  // same capacity: served from the pool
    { Matrix c(16, 16); }
    EXPECT_EQ(tracker.total_allocs() - before, 1);
  }
  // Drain returned the pooled buffer to the OS and the tracker.
  EXPECT_EQ(tracker.current(), live_before);
}

TEST(Workspace, DifferentShapesWithSamePaddedCapacityShareBuffers) {
  ScopedWorkspace ws;
  auto& tracker = MemoryTracker::instance();
  const std::int64_t before = tracker.total_allocs();
  { Matrix a(3, 5); }  // 60 B → padded 64
  { Matrix b(4, 4); }  // 64 B → padded 64: reuses a's buffer
  EXPECT_EQ(tracker.total_allocs() - before, 1);
}

TEST(Workspace, PooledBuffersCountAsLiveUntilDrain) {
  auto& tracker = MemoryTracker::instance();
  const std::int64_t live_before = tracker.current();
  {
    ScopedWorkspace ws;
    { Matrix a(32, 32); }
    // Released into the pool, not to the OS: still tracked as live.
    EXPECT_EQ(tracker.current() - live_before,
              static_cast<std::int64_t>(32 * 32 * sizeof(float)));
    const auto stats = Workspace::instance().stats();
    EXPECT_GE(stats.cached_buffers, 1);
  }
  EXPECT_EQ(tracker.current(), live_before);
}

TEST(Workspace, AllBuffersFreshAndRecycledAre64ByteAligned) {
  // The fused kernels and the SpMM engine assume cache-line/AVX alignment
  // of every Matrix base pointer — including buffers that went through the
  // pool. Odd shapes force several padded size classes.
  const auto aligned = [](const float* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  ScopedWorkspace ws;
  for (index_t rows : {1, 3, 7, 32}) {
    for (index_t cols : {1, 5, 12, 17, 128}) {
      const Matrix fresh(rows, cols);
      EXPECT_TRUE(aligned(fresh.data())) << rows << "x" << cols;
    }
  }
  // Recycled path: the second allocation of a size class comes from the
  // pool and must preserve the alignment of the original allocation.
  { Matrix warm(9, 33); }
  Matrix recycled(9, 33);
  EXPECT_TRUE(aligned(recycled.data()));
  EXPECT_GE(Workspace::instance().stats().hits, 1);
}

TEST(Workspace, NestedScopesDrainOnlyAtOutermostExit) {
  auto& tracker = MemoryTracker::instance();
  const std::int64_t live_before = tracker.current();
  {
    ScopedWorkspace outer;
    {
      ScopedWorkspace inner;
      { Matrix a(8, 8); }
    }
    // Inner exit must not drain: the buffer is still pooled.
    EXPECT_GT(tracker.current(), live_before);
    const std::int64_t before = tracker.total_allocs();
    { Matrix b(8, 8); }
    EXPECT_EQ(tracker.total_allocs(), before);  // pool hit
  }
  EXPECT_EQ(tracker.current(), live_before);
}

// spmm_csr takes its output uninitialised from the pool, relying on both of
// its loops (serial at width 1, pool row blocks at width 4 above
// kSpmmParallelMinWork) to write every element. Poison the recycled buffer
// with NaN first: any element a loop skips (an empty row, a column tail, a
// panel edge) would leak a NaN into the result and break the match with the
// reference, which takes the same poisoned buffer.
TEST(Workspace, RecycledSpmmOutputIsFullyOverwritten) {
  Rng rng(31);
  const index_t n = 9000, r = 4;
  std::vector<Triplet> batch;
  for (int i = 0; i < 16384; ++i) {
    batch.push_back({static_cast<std::int64_t>(rng.next_below(n)),
                     static_cast<std::int64_t>(rng.next_below(r)),
                     static_cast<std::int64_t>(rng.next_below(n))});
  }
  // A CSR with empty rows in the middle and at both ends.
  Csr sparse_rows;
  sparse_rows.rows = 300;
  sparse_rows.cols = n + r;
  for (index_t i = 0; i < sparse_rows.rows; ++i) {
    sparse_rows.row_ptr.push_back(static_cast<index_t>(sparse_rows.nnz()));
    if (i % 3 != 0 || i == 0 || i + 1 == sparse_rows.rows) continue;
    for (int k = 0; k < 1 + i % 5; ++k) {
      sparse_rows.col_idx.push_back(
          static_cast<index_t>(rng.next_below(n + r)));
      sparse_rows.values.push_back(k % 2 == 0 ? 1.0f : -1.0f);
    }
  }
  sparse_rows.row_ptr.push_back(static_cast<index_t>(sparse_rows.nnz()));
  // hrt (3 nnz/row), ht (2), selection (1): the fused register paths. The
  // 16384-row batch at d = 128 makes an 8 MB output (streaming stores) over
  // a table past the prefetch threshold.
  const std::vector<Csr> matrices = {
      build_hrt_incidence_csr(batch, n, r),
      build_ht_incidence_csr(batch, n + r),
      build_entity_selection_csr(batch, n + r, TripletSlot::kTail),
      sparse_rows,
  };
  auto& pool = runtime::TaskPool::instance();
  const int width_before = pool.threads();
  for (int width : {1, 4}) {
    pool.resize(width);
    for (index_t d : {20, 128}) {
      Matrix x(n + r, d);
      x.fill_uniform(rng, -1.0f, 1.0f);
      for (const Csr& a : matrices) {
        const Matrix want = spmm_csr_reference(a, x);
        ScopedWorkspace ws;
        for (bool reference : {true, false}) {
          {
            Matrix poison = Matrix::uninitialized(a.rows, d);
            poison.fill(std::numeric_limits<float>::quiet_NaN());
          }
          const std::int64_t hits = Workspace::instance().stats().hits;
          const Matrix got =
              reference ? spmm_csr_reference(a, x) : spmm_csr(a, x);
          EXPECT_EQ(Workspace::instance().stats().hits, hits + 1)
              << "output did not come from the poisoned buffer";
          index_t mismatches = 0;
          for (index_t i = 0; i < got.size(); ++i) {
            if (!(got.data()[i] == want.data()[i])) ++mismatches;
          }
          EXPECT_EQ(mismatches, 0)
              << (reference ? "reference" : "spmm_csr") << " width=" << width
              << " d=" << d << " rows=" << a.rows;
        }
      }
    }
  }
  pool.resize(width_before);
}

// The acceptance property: zero per-batch heap-allocation growth in
// steady-state training, for both the plain-SGD sparse path and a model
// with projections (TransR exercises relation_project's scratch tensors).
TEST(Workspace, SteadyStateTrainingPerformsZeroAllocations) {
  Rng rng(5);
  kg::Dataset ds = kg::generate({"ws", 120, 6, 1200}, rng, 0.0, 0.0);
  for (const char* name : {"TransE", "TransR"}) {
    models::ModelConfig cfg;
    cfg.dim = 16;
    cfg.rel_dim = 8;
    Rng mr(6);
    auto model = models::make_sparse_model(name, ds.num_entities(),
                                           ds.num_relations(), cfg, mr);
    train::TrainConfig tc;
    tc.epochs = 4;
    tc.batch_size = 256;
    std::vector<std::int64_t> allocs_per_epoch;
    train::train(*model, ds.train, tc, [&](int, float) {
      allocs_per_epoch.push_back(MemoryTracker::instance().total_allocs());
    });
    ASSERT_EQ(allocs_per_epoch.size(), 4u);
    // Epoch 0 warms the pool (first batch); from then on: dead flat.
    EXPECT_EQ(allocs_per_epoch[1], allocs_per_epoch[0]) << name;
    EXPECT_EQ(allocs_per_epoch[2], allocs_per_epoch[1]) << name;
    EXPECT_EQ(allocs_per_epoch[3], allocs_per_epoch[2]) << name;
  }
}

TEST(Workspace, AdagradTrainingIsAlsoAllocationFree) {
  Rng rng(9);
  kg::Dataset ds = kg::generate({"wsa", 80, 4, 800}, rng, 0.0, 0.0);
  models::ModelConfig cfg;
  cfg.dim = 12;
  Rng mr(10);
  auto model = models::make_sparse_model("TransE", ds.num_entities(),
                                         ds.num_relations(), cfg, mr);
  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 128;
  tc.use_adagrad = true;
  std::vector<std::int64_t> allocs;
  train::train(*model, ds.train, tc, [&](int, float) {
    allocs.push_back(MemoryTracker::instance().total_allocs());
  });
  ASSERT_EQ(allocs.size(), 3u);
  EXPECT_EQ(allocs[2], allocs[1]);
}

}  // namespace
}  // namespace sptx
