// Tests for the typed runtime-config registry (common/runtime_config.hpp):
// the spec table, env snapshotting, programmatic overrides with validation,
// tri-state fallbacks, JSON dump, the process-wide install hook, and the
// thread-local read path's behaviour under concurrent installs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cpu_features.hpp"
#include "src/common/error.hpp"
#include "src/common/runtime_config.hpp"
#include "src/kernels/fused.hpp"

namespace sptx {
namespace {

/// Restores the pristine env-derived process snapshot on scope exit so
/// install() tests cannot leak state into other suites.
struct SnapshotGuard {
  ~SnapshotGuard() { config::install(RuntimeConfig::from_env()); }
};

TEST(RuntimeConfigSpecs, TableIsSane) {
  std::set<std::string> names;
  for (const ConfigSpec& spec : RuntimeConfig::specs()) {
    EXPECT_TRUE(std::string(spec.name).starts_with("SPTX_")) << spec.name;
    EXPECT_FALSE(spec.doc.empty()) << spec.name << " needs a doc string";
    EXPECT_TRUE(names.insert(std::string(spec.name)).second)
        << "duplicate knob " << spec.name;
    if (spec.type == ConfigType::kEnum)
      EXPECT_FALSE(spec.choices.empty()) << spec.name << " needs choices";
    else
      EXPECT_TRUE(spec.choices.empty()) << spec.name;
    // A non-empty default must itself validate: a snapshot of a clean
    // environment is usable with no special cases.
    if (!spec.default_value.empty()) {
      RuntimeConfig rc;
      EXPECT_NO_THROW(rc.set(spec.name, spec.default_value)) << spec.name;
    }
  }
  EXPECT_TRUE(names.count("SPTX_FUSED"));
  EXPECT_FALSE(names.count("SPTX_PREFETCH"));  // deleted with its field
  EXPECT_TRUE(names.count("SPTX_DDP_WORKERS"));
  EXPECT_TRUE(names.count("SPTX_SERVE_MICROBATCH"));
}

TEST(RuntimeConfigFlags, ParsingIsCaseInsensitive) {
  for (const char* off : {"0", "off", "OFF", "Off", "false", "FALSE", "no",
                          "No"})
    EXPECT_FALSE(parse_flag(off, true)) << off;
  for (const char* on : {"1", "on", "ON", "true", "TRUE", "yes", "anything"})
    EXPECT_TRUE(parse_flag(on, false)) << on;
  EXPECT_TRUE(parse_flag("", true));    // empty keeps the fallback
  EXPECT_FALSE(parse_flag("", false));
}

TEST(RuntimeConfig, TriStateKnobsKeepTheCallersFallback) {
  const RuntimeConfig rc;  // defaults only
  EXPECT_FALSE(rc.is_set("SPTX_DDP_PLAN_CACHE"));
  EXPECT_TRUE(rc.flag_or("SPTX_DDP_PLAN_CACHE", true));
  EXPECT_FALSE(rc.flag_or("SPTX_DDP_PLAN_CACHE", false));
  EXPECT_EQ(rc.int_or("SPTX_DDP_WORKERS", 7), 7);
  // Knobs with real defaults resolve to them.
  EXPECT_FALSE(rc.flag_or("SPTX_NO_SIMD", true));
  EXPECT_TRUE(rc.flag_or("SPTX_FUSED", false));
  EXPECT_DOUBLE_EQ(rc.double_or("SPTX_SCALE", 0.5), 0.01);
}

TEST(RuntimeConfig, FromEnvSnapshotsCurrentEnvironment) {
  ::setenv("SPTX_DDP_WORKERS", "8", 1);
  ::setenv("SPTX_DDP_PLAN_CACHE", "OFF", 1);  // case-insensitive flag
  const RuntimeConfig rc = RuntimeConfig::from_env();
  ::unsetenv("SPTX_DDP_WORKERS");
  ::unsetenv("SPTX_DDP_PLAN_CACHE");
  // The snapshot holds what the environment said at from_env() time...
  EXPECT_EQ(rc.int_or("SPTX_DDP_WORKERS", 1), 8);
  EXPECT_EQ(rc.origin("SPTX_DDP_WORKERS"), ConfigOrigin::kEnvironment);
  EXPECT_FALSE(rc.flag_or("SPTX_DDP_PLAN_CACHE", true));
  // ...and a later snapshot no longer sees the unset variables.
  const RuntimeConfig later = RuntimeConfig::from_env();
  EXPECT_FALSE(later.is_set("SPTX_DDP_WORKERS"));
}

TEST(RuntimeConfig, MalformedEnvironmentValuesAreIgnored) {
  ::setenv("SPTX_DDP_WORKERS", "not-a-number", 1);
  ::setenv("SPTX_DDP_MODE", "not-a-mode", 1);
  const RuntimeConfig rc = RuntimeConfig::from_env();
  ::unsetenv("SPTX_DDP_WORKERS");
  ::unsetenv("SPTX_DDP_MODE");
  EXPECT_FALSE(rc.is_set("SPTX_DDP_WORKERS"));
  EXPECT_EQ(rc.int_or("SPTX_DDP_WORKERS", 3), 3);
  EXPECT_FALSE(rc.is_set("SPTX_DDP_MODE"));
  EXPECT_EQ(rc.value_or("SPTX_DDP_MODE", "threads"), "threads");
}

TEST(RuntimeConfig, SetValidatesNameTypeAndChoices) {
  RuntimeConfig rc;
  EXPECT_THROW(rc.set("SPTX_NOT_A_KNOB", "1"), Error);
  EXPECT_THROW(rc.set("SPTX_PREFETCH", "0"), Error);  // deleted knob
  EXPECT_THROW(rc.set("SPTX_DDP_MODE", "warp-speed"), Error);
  EXPECT_THROW(rc.set("SPTX_DDP_WORKERS", "many"), Error);
  rc.set("SPTX_DDP_MODE", "PROCS");  // case-insensitive enum
  EXPECT_EQ(rc.origin("SPTX_DDP_MODE"), ConfigOrigin::kOverride);
  EXPECT_EQ(to_lower(rc.value_or("SPTX_DDP_MODE", "")), "procs");
  rc.clear("SPTX_DDP_MODE");
  EXPECT_FALSE(rc.is_set("SPTX_DDP_MODE"));
  EXPECT_EQ(rc.origin("SPTX_DDP_MODE"), ConfigOrigin::kDefault);
  // SPTX_FUSED is a flag that still takes the old enum spellings.
  for (const char* on : {"on", "auto", "AUTO", "1"}) {
    rc.set("SPTX_FUSED", on);
    EXPECT_FALSE(rc.hot().fused_off) << on;
  }
  rc.set("SPTX_FUSED", "OFF");
  EXPECT_TRUE(rc.hot().fused_off);
  rc.clear("SPTX_FUSED");
  EXPECT_FALSE(rc.hot().fused_off);
  EXPECT_EQ(rc.origin("SPTX_FUSED"), ConfigOrigin::kDefault);
}

TEST(RuntimeConfig, TypedAccessorsRejectTypeMismatch) {
  const RuntimeConfig rc;
  EXPECT_THROW(rc.flag_or("SPTX_SCALE", false), Error);
  EXPECT_THROW(rc.int_or("SPTX_NO_SIMD", 0), Error);
  EXPECT_THROW(rc.double_or("SPTX_DDP_WORKERS", 0.0), Error);
  EXPECT_THROW(rc.flag_or("SPTX_NOT_A_KNOB", false), Error);
}

TEST(RuntimeConfig, ToJsonRendersEveryKnob) {
  RuntimeConfig rc;
  rc.set("SPTX_DDP_WORKERS", "4");
  const std::string json = rc.to_json();
  for (const ConfigSpec& spec : RuntimeConfig::specs())
    EXPECT_NE(json.find(std::string(spec.name)), std::string::npos)
        << spec.name;
  EXPECT_NE(json.find("\"SPTX_DDP_WORKERS\": {\"value\": 4, "
                      "\"origin\": \"override\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"SPTX_DDP_PLAN_CACHE\": {\"value\": null"),
            std::string::npos)
      << json;
}

TEST(RuntimeConfig, InstallSwapsTheProcessSnapshot) {
  SnapshotGuard guard;
  RuntimeConfig rc;
  rc.set("SPTX_DDP_WORKERS", "13");
  config::install(rc);
  EXPECT_EQ(config::current()->int_or("SPTX_DDP_WORKERS", 1), 13);
  // A reader that grabbed the old snapshot keeps a consistent view.
  const auto held = config::current();
  config::install(RuntimeConfig{});
  EXPECT_EQ(held->int_or("SPTX_DDP_WORKERS", 1), 13);
  EXPECT_EQ(config::current()->int_or("SPTX_DDP_WORKERS", 1), 1);
}

TEST(RuntimeConfig, ConcurrentReadersSeeEachInstallWhole) {
  SnapshotGuard guard;
  // Two snapshots that differ in three knobs at once; a reader must see one
  // of them whole, never a mix.
  RuntimeConfig a = RuntimeConfig::from_env();
  a.set("SPTX_NO_SIMD", "0");
  a.set("SPTX_FUSED", "on");
  a.set("SPTX_DDP_WORKERS", "1");
  RuntimeConfig b = a;
  b.set("SPTX_NO_SIMD", "1");
  b.set("SPTX_FUSED", "off");
  b.set("SPTX_DDP_WORKERS", "2");
  config::install(a);
  const auto held = config::current();  // copy: must outlive every install
  const bool hw_simd = cpu_features().avx2 && cpu_features().fma;

  // Generation g (g even = a, odd = b) is published only after install()
  // returns, and the next install waits until every reader has acknowledged
  // g. So a reader that has not yet acknowledged g must read exactly g.
  constexpr int kReaders = 3;
  constexpr int kInstalls = 200;
  std::atomic<int> generation{0};
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> stale{0};
  std::vector<std::atomic<int>> acked(kReaders);
  for (auto& x : acked) x.store(0);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        const int g = generation.load(std::memory_order_acquire);
        const bool want_b = g % 2 == 1;
        const bool simd = simd_enabled();
        const bool fused = kernels::fused_enabled();
        const bool no_simd = config::current()->hot().no_simd;
        const auto snap = config::current();
        const RuntimeConfig::HotKnobs& hot = snap->hot();
        const bool snap_b = hot.no_simd;
        if (hot.fused_off != snap_b ||
            snap->int_or("SPTX_DDP_WORKERS", 0) != (snap_b ? 2 : 1))
          torn.fetch_add(1);
        if (acked[r].load(std::memory_order_relaxed) != g) {
          if (no_simd != want_b || fused == want_b ||
              simd != (hw_simd && !want_b) || snap_b != want_b)
            stale.fetch_add(1);
          acked[r].store(g, std::memory_order_release);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int g = 1; g <= kInstalls; ++g) {
    config::install(g % 2 == 1 ? b : a);
    generation.store(g, std::memory_order_release);
    for (auto& x : acked)
      while (x.load(std::memory_order_acquire) != g) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0) << "a reader saw a mix of two snapshots";
  EXPECT_EQ(stale.load(), 0) << "a reader missed an install that had returned";
  EXPECT_FALSE(held->hot().no_simd);
  EXPECT_FALSE(held->hot().fused_off);
  EXPECT_EQ(held->int_or("SPTX_DDP_WORKERS", 0), 1);
}

TEST(RuntimeConfig, ScopedOverrideReachesTheHotReaders) {
  SnapshotGuard guard;
  config::install(RuntimeConfig{});
  const auto held = config::current();
  ASSERT_FALSE(config::current()->hot().no_simd);
  {
    config::ScopedOverride off("SPTX_NO_SIMD", "1");
    EXPECT_FALSE(simd_enabled());
    EXPECT_TRUE(config::current()->hot().no_simd);
    std::thread other([] { EXPECT_FALSE(simd_enabled()); });
    other.join();
  }
  EXPECT_FALSE(config::current()->hot().no_simd);
  EXPECT_EQ(simd_enabled(), cpu_features().avx2 && cpu_features().fma);
  EXPECT_FALSE(held->hot().no_simd);
}

}  // namespace
}  // namespace sptx
