// Regression tests for the races flushed out by the thread-safety
// annotation pass (PR 8):
//
//  * Engine::sessions_ — the session registry was an unguarded vector;
//    open_session()'s prune-and-push raced publish()/health_json()
//    iteration. Now guarded by sessions_mu_.
//  * Workspace::enabled() — a plain-int read of depth_ raced the locked
//    writes in enable()/disable(). Now an atomic with acquire/release.
//
// The hammer tests are small enough to finish in well under a second yet
// wide enough that TSan (SPTX_SANITIZE=thread in CI) reports the original
// interleavings on the pre-fix code.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/api/engine.hpp"
#include "src/kg/synthetic.hpp"
#include "src/profiling/counters.hpp"
#include "src/tensor/workspace.hpp"

namespace sptx {
namespace {

kg::Dataset tiny_dataset() {
  Rng rng(42);
  return kg::generate({"ts-test", 50, 4, 400}, rng, 0.05, 0.1);
}

ModelSpec tiny_spec() {
  ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = 8;
  spec.seed = 7;
  return spec;
}

// ---- Workspace::enabled ----------------------------------------------------

TEST(WorkspaceEnabled, ConcurrentReadersSeeToggles) {
  // enabled() used to read a plain int that enable()/disable() wrote under
  // the pool lock — a data race even when the torn value was harmless.
  // Readers now take an acquire load; hammer it against a toggling writer.
  auto& ws = Workspace::instance();
  ASSERT_FALSE(ws.enabled());
  std::atomic<bool> stop{false};
  std::atomic<int> observed_enabled{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed))
        if (ws.enabled()) observed_enabled.fetch_add(1);
    });
  }
  for (int i = 0; i < 200; ++i) {
    ScopedWorkspace scope;
    // Readers racing this scope may observe enabled() true or false — both
    // are valid; the point is the access itself is now well-defined.
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(ws.enabled());  // every scope exited: depth back to zero
}

TEST(WorkspaceEnabled, NestedScopesKeepDepthBalanced) {
  auto& ws = Workspace::instance();
  ASSERT_FALSE(ws.enabled());
  {
    ScopedWorkspace outer;
    EXPECT_TRUE(ws.enabled());
    {
      ScopedWorkspace inner;
      EXPECT_TRUE(ws.enabled());
    }
    EXPECT_TRUE(ws.enabled());  // inner exit must not disable the outer scope
  }
  EXPECT_FALSE(ws.enabled());
}

// ---- Engine session registry -----------------------------------------------

TEST(EngineSessionRegistry, ConcurrentOpenPublishAndHealthProbe) {
  // Pre-fix, open_session() pruned and grew the sessions_ vector with no
  // lock while publish() and health_json() iterated it — invalidated
  // iterators under TSan, lost hot-swaps at best. The registry lock makes
  // the three surfaces safe to run concurrently; this hammers all three.
  const kg::Dataset ds = tiny_dataset();
  Engine engine;
  engine.create_model(tiny_spec(), ds.num_entities(), ds.num_relations());

  constexpr int kOpenThreads = 2;
  constexpr int kSessionsPerThread = 12;
  constexpr int kPublishes = 8;
  std::atomic<bool> done_opening{false};
  std::vector<std::shared_ptr<serve::InferenceSession>> kept[kOpenThreads];
  std::vector<std::thread> threads;

  for (int t = 0; t < kOpenThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        auto session = engine.open_session();
        // Keep every other session alive so publish() fans out over a mix
        // of live and expired registry entries.
        if (i % 2 == 0) kept[t].push_back(std::move(session));
      }
    });
  }
  threads.emplace_back([&] {
    int published = 0;
    while (!done_opening.load(std::memory_order_acquire) ||
           published < kPublishes) {
      engine.publish();
      ++published;
    }
  });
  threads.emplace_back([&] {
    while (!done_opening.load(std::memory_order_acquire)) {
      const std::string health = engine.health_json();
      EXPECT_NE(health.find("\"sessions_open\""), std::string::npos);
    }
  });
  threads[0].join();
  threads[1].join();
  done_opening.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  // Every surviving session converged on the newest published snapshot.
  const std::uint64_t version = engine.published_version();
  EXPECT_GT(version, 0u);
  engine.publish();
  const std::uint64_t final_version = engine.published_version();
  EXPECT_GT(final_version, version);
  for (const auto& bucket : kept)
    for (const auto& session : bucket)
      EXPECT_EQ(session->snapshot_version(), final_version);
}

TEST(EngineSessionRegistry, HealthJsonReportsCounterTable) {
  // The health surface prints every structural counter under its stable
  // name — the same names tools/sptx_lint.py checks against the Counter
  // enum, so a drifting table fails both the lint and this test.
  const kg::Dataset ds = tiny_dataset();
  Engine engine;
  engine.create_model(tiny_spec(), ds.num_entities(), ds.num_relations());
  const std::string health = engine.health_json();
  EXPECT_NE(health.find("\"counters\""), std::string::npos);
  for (int c = 0; c < static_cast<int>(profiling::Counter::kNumCounters); ++c) {
    const char* name =
        profiling::counter_name(static_cast<profiling::Counter>(c));
    EXPECT_NE(health.find(std::string("\"") + name + "\""), std::string::npos)
        << "counter '" << name << "' missing from health_json";
  }
}

}  // namespace
}  // namespace sptx
