// Typed runtime-configuration registry — every SPTX_* knob in one table.
//
// The library grew ~15 environment knobs (kernel switches, plan-cache
// switches, DDP sharding, serving micro-batch tuning) that used to be read
// by ad-hoc getenv calls deep inside spmm.cpp / trainer.cpp / ddp.cpp, each
// with its own parsing helper. This header replaces all of that with one
// declarative table (name, type, default, doc string) and an immutable
// snapshot type:
//
//  * RuntimeConfig::specs()    — the table itself, the single source of
//    truth the CLI's `sptx config` command and the README env table render.
//  * RuntimeConfig::from_env() — defaults overlaid with the current
//    environment, captured at the moment of the call. Engine construction
//    takes one snapshot; nothing re-reads the environment afterwards.
//  * set()/clear()             — programmatic overrides, validated against
//    the spec's type (a bad value throws instead of being silently dropped
//    the way a typo'd environment variable used to be).
//  * to_json()                 — the effective configuration as JSON, for
//    logging what a run actually used.
//
// Knobs that default to "keep the config-struct field" (SPTX_DDP_WORKERS,
// SPTX_CHECKPOINT_EVERY, …) are tri-state: is_set() distinguishes "absent"
// from an explicit value, and the *_or accessors fall back to the caller's
// value.
// All flag parsing is case-insensitive: "0" / "off" / "false" / "no"
// disable, any other non-empty value enables.
//
// Process-wide consumption: hot-path dispatch sites that have no Engine in
// scope (the SIMD kill switch, the fused-kernel switch) consult
// config::current(), a shared snapshot initialised lazily from the
// environment and replaceable via config::install() — which is what
// Engine construction does, so programmatic overrides reach the kernel
// dispatch too.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sptx {

enum class ConfigType {
  kFlag,    // boolean; "0"/"off"/"false"/"no" (any case) = false
  kInt,     // integer (leading numeric prefix accepted, like strtol)
  kDouble,  // floating point
  kEnum,    // one of the spec's pipe-separated choices, case-insensitive
  kString,  // free-form text (fault specs, paths); any value validates
};

/// One registered knob. The table is pure data — adding a knob means adding
/// a row here and reading it where it applies.
struct ConfigSpec {
  std::string_view name;           // "SPTX_DDP_WORKERS"
  ConfigType type = ConfigType::kFlag;
  /// Canonical default in text form. Empty = tri-state "keep the caller's
  /// config-struct field" (the *_or accessors' fallback applies).
  std::string_view default_value = {};
  std::string_view doc = {};
  /// kEnum only: pipe-separated valid values, e.g. "auto|on|off".
  std::string_view choices = {};
};

/// Where a knob's effective value came from.
enum class ConfigOrigin { kDefault, kEnvironment, kOverride };

const char* to_string(ConfigOrigin origin);

/// An immutable-by-convention snapshot of every registered knob. Copyable;
/// Engine keeps one per instance, config::current() holds the process-wide
/// one. Reads are lock-free after construction; mutation (set/clear) is for
/// the construction phase and tests.
class RuntimeConfig {
 public:
  /// The declarative table of every SPTX_* knob.
  static std::span<const ConfigSpec> specs();

  /// Spec row for `name`, or nullptr. Name match is exact (names are
  /// uppercase by convention).
  static const ConfigSpec* find_spec(std::string_view name);

  /// Defaults only — no environment read at all.
  RuntimeConfig();

  /// Defaults overlaid with the environment as it is right now. Unparsable
  /// environment values are ignored (the historical getenv helpers fell
  /// back to defaults rather than failing a run over a typo).
  static RuntimeConfig from_env();

  // ---- typed reads --------------------------------------------------------
  /// Effective value with tri-state fallback: when the knob is unset (no
  /// default, no env, no override) the caller's `fallback` wins. Throws
  /// Error for an unknown name or a type mismatch.
  bool flag_or(std::string_view name, bool fallback) const;
  std::int64_t int_or(std::string_view name, std::int64_t fallback) const;
  double double_or(std::string_view name, double fallback) const;
  /// Raw text form (enum/any type); empty when unset.
  std::string value_or(std::string_view name, std::string_view fallback) const;

  bool is_set(std::string_view name) const;
  ConfigOrigin origin(std::string_view name) const;

  // ---- mutation -----------------------------------------------------------
  /// Programmatic override. Validates the name against the table and the
  /// value against the spec's type/choices; throws Error on either.
  void set(std::string_view name, std::string_view value);

  /// Drop an override / env value back to the spec default.
  void clear(std::string_view name);

  /// The effective configuration as a JSON object:
  /// {"SPTX_X": {"value": ..., "origin": "default|env|override"}, ...}.
  /// Unset tri-state knobs render as null.
  std::string to_json() const;

  /// Pre-resolved values of the knobs consulted on the kernels' hot paths,
  /// recomputed on every mutation so the per-SpMM read is a plain field
  /// access — no name lookup, no string allocation, no parsing.
  struct HotKnobs {
    bool no_simd = false;
    bool fused_off = false;  // SPTX_FUSED is off
  };
  const HotKnobs& hot() const { return hot_; }

 private:
  struct Entry {
    std::optional<std::string> value;  // nullopt = spec default applies
    ConfigOrigin origin = ConfigOrigin::kDefault;
  };
  const Entry& entry(std::string_view name) const;
  /// Entry index for `name` (aligned with specs()); throws on unknown name.
  static std::size_t index_of(std::string_view name);
  void refresh_hot();

  std::vector<Entry> entries_;  // aligned with specs()
  HotKnobs hot_;
};

// ---- flag/number parsing (shared with call sites that read raw text) ------

/// Case-insensitive flag parse: "0"/"off"/"false"/"no" → false, any other
/// non-empty text → true, empty → fallback.
bool parse_flag(std::string_view text, bool fallback);

/// Lowercase copy (ASCII) — enum values and flags compare case-insensitively.
std::string to_lower(std::string_view s);

namespace config {

/// The process-wide snapshot consulted by call sites with no Engine in
/// scope (kernel dispatch, the legacy free functions). Initialised from the
/// environment on first use.
///
/// Returns this thread's cached slot by reference, so the steady-state read
/// is one acquire load of the version counter plus a thread-local compare —
/// no refcount traffic on the snapshot's shared control block. The slot is
/// re-pointed by the next current() on this thread after an install(), and
/// that can free the snapshot it referred to. Use the result within one
/// expression (`config::current()->hot().no_simd`); to hold the snapshot
/// across a call that may install(), copy the shared_ptr
/// (`const auto snap = config::current();`) — never bind the result, or
/// `*config::current()`, to a reference.
const std::shared_ptr<const RuntimeConfig>& current();

/// Replace the process-wide snapshot (Engine construction, tests). The old
/// snapshot stays valid for readers that already hold it.
void install(RuntimeConfig snapshot);

/// RAII: install a copy of the current process snapshot with one knob
/// overridden, restoring the previous snapshot on destruction. The bench /
/// test replacement for the setenv() toggling that a latched snapshot no
/// longer observes.
class ScopedOverride {
 public:
  ScopedOverride(std::string_view name, std::string_view value);
  ~ScopedOverride();
  ScopedOverride(const ScopedOverride&) = delete;
  ScopedOverride& operator=(const ScopedOverride&) = delete;

 private:
  std::shared_ptr<const RuntimeConfig> previous_;
};

}  // namespace config

}  // namespace sptx
