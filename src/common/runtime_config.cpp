#include "src/common/runtime_config.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/thread_annotations.hpp"

namespace sptx {

namespace {

// The registry. One row per knob; the CLI and README render this table, the
// library reads it, and nothing else in the tree calls getenv for SPTX_*.
constexpr ConfigSpec kSpecs[] = {
    {"SPTX_NO_SIMD", ConfigType::kFlag, "0",
     "Force the scalar SpMM kernels even when cpuid reports AVX2+FMA "
     "(kernel-equivalence testing, perf triage)."},
    {"SPTX_FUSED", ConfigType::kFlag, "1",
     "Training graph of the families with fused kernels (src/kernels): on "
     "(the default) trains through the single-pass fused forward+backward "
     "node, off through the legacy autograd graph (bit-identical to the "
     "historical path). Scoring (eval, serving) always uses the fused "
     "forward kernels."},
    {"SPTX_DDP_WORKERS", ConfigType::kInt, "",
     "Override DdpConfig::workers: thread-backed data-parallel worker "
     "count."},
    {"SPTX_DDP_SHARD", ConfigType::kInt, "",
     "Override DdpConfig::shard_size: gradient-shard granularity (0 derives "
     "ceil(batch/workers))."},
    {"SPTX_DDP_PLAN_CACHE", ConfigType::kFlag, "",
     "Override DdpConfig::plan_cache: per-worker compiled-plan caching "
     "across epochs."},
    {"SPTX_SCALE", ConfigType::kDouble, "0.01",
     "Bench harness: dataset scale factor for the paper-profile benches "
     "(0 < s <= 1)."},
    {"SPTX_EPOCHS", ConfigType::kInt, "",
     "Bench harness: epoch-count override for the figure/table benches."},
    {"SPTX_SERVE_MICROBATCH", ConfigType::kFlag, "",
     "Override SessionOptions::micro_batch: coalesce concurrent small "
     "score queries into one SpMM-sized batch."},
    {"SPTX_SERVE_MAX_BATCH", ConfigType::kInt, "",
     "Override SessionOptions::max_batch: micro-batch coalescing cap in "
     "triplets."},
    {"SPTX_SERVE_WINDOW_US", ConfigType::kInt, "",
     "Override SessionOptions::window_us: how long a micro-batch leader "
     "waits for followers before executing."},
    {"SPTX_SERVE_QUEUE_LIMIT", ConfigType::kInt, "",
     "Override SessionOptions::queue_limit: bounded micro-batch queue depth "
     "in triplets; arrivals beyond it are rejected with kQueueFull "
     "(0 = unbounded, the historical behavior)."},
    {"SPTX_SERVE_CONCURRENCY", ConfigType::kInt, "",
     "Override SessionOptions::max_concurrency: cap on simultaneous "
     "underlying score() executions behind the micro-batch queue "
     "(0 = unbounded)."},
    {"SPTX_SERVE_DEADLINE_US", ConfigType::kInt, "",
     "Override SessionOptions::deadline_us: default per-request deadline; "
     "requests that cannot start scoring in time are shed with kDeadline "
     "(0 = no deadline)."},
    {"SPTX_ANN", ConfigType::kEnum, "",
     "Override SessionOptions::ann: clustered ANN acceleration for top-k "
     "serving. auto builds+uses the IVF index when the model family has a "
     "probe transform and the vocabulary has at least SPTX_ANN_MIN_ENTITIES "
     "entities, on forces it for any size, off always brute-forces. "
     "Returned scores are exact either way (candidates re-rank through the "
     "model's score path).",
     "auto|on|off"},
    {"SPTX_ANN_NPROBE", ConfigType::kInt, "",
     "Override SessionOptions::ann_nprobe: centroid lists scanned per ANN "
     "top-k query — the recall/latency dial (0 = auto: max(4, "
     "k_lists/10))."},
    {"SPTX_ANN_MIN_ENTITIES", ConfigType::kInt, "",
     "Override SessionOptions::ann_min_entities: below this entity count "
     "SPTX_ANN=auto stays brute-force (the index build + probe overhead "
     "beats the scan it saves on small vocabularies)."},
    {"SPTX_CHECKPOINT_EVERY", ConfigType::kInt, "",
     "Override TrainConfig/DdpConfig::checkpoint_every: write a crash-safe "
     "training checkpoint every N epochs (0 = off)."},
    {"SPTX_CHECKPOINT_KEEP", ConfigType::kInt, "",
     "Override TrainConfig/DdpConfig::checkpoint_keep: retain the last N "
     "rotated checkpoints (0 = keep all)."},
    {"SPTX_DDP_RETRIES", ConfigType::kInt, "",
     "Override DdpConfig::max_worker_retries: how many times a batch "
     "re-runs a failed worker's shards before aborting with a checkpoint "
     "flush."},
    {"SPTX_DDP_MODE", ConfigType::kEnum, "",
     "Override DdpConfig::mode: 'threads' runs DDP workers as threads in "
     "this process (the historical path), 'procs' fork/execs supervised "
     "worker processes over the sockets/shm transport — bit-identical "
     "results, process-level fault isolation.",
     "threads|procs"},
    {"SPTX_DDP_HEARTBEAT_MS", ConfigType::kInt, "",
     "Override DdpConfig::heartbeat_ms: procs-mode liveness deadline — a "
     "worker process that sends no frame for this long is declared lost "
     "and its shards re-run on the supervisor."},
    {"SPTX_DDP_POLICY", ConfigType::kEnum, "",
     "Override DdpConfig::policy: what procs mode does when the respawn "
     "budget (SPTX_DDP_RETRIES) is exhausted — 'strict' flushes a "
     "<checkpoint>.abort and throws kWorkerLost, 'degrade' continues on "
     "the surviving workers (down to the supervisor alone).",
     "strict|degrade"},
    {"SPTX_DDP_SHM_BYTES", ConfigType::kInt, "",
     "Override DdpConfig::shm_bytes: per-worker shared-memory ring size "
     "for gradient payloads in procs mode (0 = sockets only; payloads "
     "that outgrow the ring fall back to the socket inline path)."},
    {"SPTX_FAULT_SPEC", ConfigType::kString, "",
     "Deterministic fault-injection spec, comma-separated site:mode[@args] "
     "rules (see src/common/fault.hpp), e.g. "
     "'checkpoint_write:fail_once@3,ddp_worker:die@2:1,mmap_read:eio@0.01'."},
    {"SPTX_FAULT_SEED", ConfigType::kInt, "",
     "Seed for probabilistic (eio) fault-injection rules; the same spec + "
     "seed faults the same hits in every run."},
    {"SPTX_RUNTIME_THREADS", ConfigType::kInt, "",
     "Width of the shared task pool, including the calling lane (N means "
     "N-1 background workers). Default: hardware concurrency. Latched when "
     "the pool first runs; tests/benches re-shape via TaskPool::resize."},
};

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

/// Does `text` parse as the spec's type? Enum checks the choices list.
bool validates(const ConfigSpec& spec, std::string_view text) {
  switch (spec.type) {
    case ConfigType::kFlag:
      return !text.empty();  // any non-empty text is a valid flag
    case ConfigType::kInt: {
      const std::string s(text);
      char* end = nullptr;
      std::strtol(s.c_str(), &end, 10);
      return end != s.c_str();
    }
    case ConfigType::kDouble: {
      const std::string s(text);
      char* end = nullptr;
      std::strtod(s.c_str(), &end);
      return end != s.c_str();
    }
    case ConfigType::kEnum: {
      std::string_view choices = spec.choices;
      while (!choices.empty()) {
        const std::size_t bar = choices.find('|');
        const std::string_view choice = choices.substr(0, bar);
        if (iequals(choice, text)) return true;
        if (bar == std::string_view::npos) break;
        choices.remove_prefix(bar + 1);
      }
      return false;
    }
    case ConfigType::kString:
      return true;  // free-form; the consumer validates (fault::install)
  }
  return false;
}

std::int64_t parse_int(std::string_view text, std::int64_t fallback) {
  if (text.empty()) return fallback;
  const std::string s(text);
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  return end == s.c_str() ? fallback : static_cast<std::int64_t>(v);
}

double parse_double(std::string_view text, double fallback) {
  if (text.empty()) return fallback;
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  return end == s.c_str() ? fallback : v;
}

}  // namespace

const char* to_string(ConfigOrigin origin) {
  switch (origin) {
    case ConfigOrigin::kDefault:
      return "default";
    case ConfigOrigin::kEnvironment:
      return "env";
    case ConfigOrigin::kOverride:
      return "override";
  }
  return "?";
}

bool parse_flag(std::string_view text, bool fallback) {
  if (text.empty()) return fallback;
  const std::string lower = to_lower(text);
  return !(lower == "0" || lower == "off" || lower == "false" ||
           lower == "no");
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::span<const ConfigSpec> RuntimeConfig::specs() { return kSpecs; }

const ConfigSpec* RuntimeConfig::find_spec(std::string_view name) {
  for (const ConfigSpec& spec : kSpecs)
    if (spec.name == name) return &spec;
  return nullptr;
}

RuntimeConfig::RuntimeConfig() : entries_(std::size(kSpecs)) { refresh_hot(); }

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig rc;
  for (std::size_t i = 0; i < std::size(kSpecs); ++i) {
    const std::string name(kSpecs[i].name);
    const char* v = std::getenv(name.c_str());
    if (v == nullptr || *v == '\0') continue;
    // A malformed environment value is ignored, not fatal — the historical
    // helpers fell back to defaults, and a run must not die over a typo'd
    // variable it may not even consume.
    if (!validates(kSpecs[i], v)) continue;
    rc.entries_[i] = {std::string(v), ConfigOrigin::kEnvironment};
  }
  rc.refresh_hot();
  return rc;
}

void RuntimeConfig::refresh_hot() {
  hot_.no_simd = flag_or("SPTX_NO_SIMD", false);
  hot_.fused_off = !flag_or("SPTX_FUSED", true);
}

std::size_t RuntimeConfig::index_of(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kSpecs); ++i)
    if (kSpecs[i].name == name) return i;
  throw Error("unknown runtime-config knob: " + std::string(name));
}

const RuntimeConfig::Entry& RuntimeConfig::entry(std::string_view name) const {
  return entries_[index_of(name)];
}

bool RuntimeConfig::flag_or(std::string_view name, bool fallback) const {
  const std::size_t i = index_of(name);
  SPTX_CHECK(kSpecs[i].type == ConfigType::kFlag,
             name << " is not a flag knob");
  const Entry& e = entries_[i];
  const std::string_view text =
      e.value ? std::string_view(*e.value) : kSpecs[i].default_value;
  return parse_flag(text, fallback);
}

std::int64_t RuntimeConfig::int_or(std::string_view name,
                                   std::int64_t fallback) const {
  const std::size_t i = index_of(name);
  SPTX_CHECK(kSpecs[i].type == ConfigType::kInt,
             name << " is not an int knob");
  const Entry& e = entries_[i];
  const std::string_view text =
      e.value ? std::string_view(*e.value) : kSpecs[i].default_value;
  return parse_int(text, fallback);
}

double RuntimeConfig::double_or(std::string_view name, double fallback) const {
  const std::size_t i = index_of(name);
  SPTX_CHECK(kSpecs[i].type == ConfigType::kDouble,
             name << " is not a double knob");
  const Entry& e = entries_[i];
  const std::string_view text =
      e.value ? std::string_view(*e.value) : kSpecs[i].default_value;
  return parse_double(text, fallback);
}

std::string RuntimeConfig::value_or(std::string_view name,
                                    std::string_view fallback) const {
  const std::size_t i = index_of(name);
  const Entry& e = entries_[i];
  if (e.value) return *e.value;
  if (!kSpecs[i].default_value.empty())
    return std::string(kSpecs[i].default_value);
  return std::string(fallback);
}

bool RuntimeConfig::is_set(std::string_view name) const {
  return entry(name).value.has_value();
}

ConfigOrigin RuntimeConfig::origin(std::string_view name) const {
  return entry(name).origin;
}

void RuntimeConfig::set(std::string_view name, std::string_view value) {
  const std::size_t i = index_of(name);
  SPTX_CHECK(validates(kSpecs[i], value),
             "invalid value '" << value << "' for " << name
                               << (kSpecs[i].type == ConfigType::kEnum
                                       ? std::string(" (choices: ") +
                                             std::string(kSpecs[i].choices) +
                                             ")"
                                       : std::string()));
  entries_[i] = {std::string(value), ConfigOrigin::kOverride};
  refresh_hot();
}

void RuntimeConfig::clear(std::string_view name) {
  entries_[index_of(name)] = Entry{};
  refresh_hot();
}

std::string RuntimeConfig::to_json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < std::size(kSpecs); ++i) {
    const ConfigSpec& spec = kSpecs[i];
    if (i > 0) os << ",";
    os << "\n  \"" << spec.name << "\": {\"value\": ";
    const Entry& e = entries_[i];
    const std::string_view text =
        e.value ? std::string_view(*e.value) : spec.default_value;
    if (text.empty()) {
      os << "null";
    } else {
      switch (spec.type) {
        case ConfigType::kFlag:
          os << (parse_flag(text, false) ? "true" : "false");
          break;
        case ConfigType::kInt:
          os << parse_int(text, 0);
          break;
        case ConfigType::kDouble:
          os << parse_double(text, 0.0);
          break;
        case ConfigType::kEnum:
          os << "\"" << to_lower(text) << "\"";
          break;
        case ConfigType::kString: {
          os << "\"";
          for (char c : text)
            if (c == '"' || c == '\\')
              os << '\\' << c;
            else
              os << c;
          os << "\"";
          break;
        }
      }
    }
    os << ", \"origin\": \"" << to_string(e.origin) << "\"}";
  }
  os << "\n}";
  return os.str();
}

namespace config {

namespace {
// The SIMD, fused-kernel, SpMM and thread-pool dispatch consult current()
// from every pool and serving thread, many times per batch, so the fast
// path must not write shared memory: each thread caches the snapshot in a
// thread_local, validated against a version counter that install() bumps,
// and current() hands out that slot by reference. Steady state is one
// acquire load of a counter that only install() writes plus a thread-local
// compare — no mutex, no atomic<shared_ptr> spin-lock, and no shared_ptr
// copy (whose refcount increment/decrement on the one control block would
// bounce its cache line between cores on every call). The mutex guards only
// the (rare) install / first-use slow path.
Mutex g_mu;
std::shared_ptr<const RuntimeConfig> g_snapshot SPTX_GUARDED_BY(g_mu);
std::atomic<std::uint64_t> g_version{0};          // 0 = not yet initialised

struct TlsCache {
  std::uint64_t version = 0;
  std::shared_ptr<const RuntimeConfig> snap;
};
}  // namespace

const std::shared_ptr<const RuntimeConfig>& current() {
  thread_local TlsCache cache;
  const std::uint64_t v = g_version.load(std::memory_order_acquire);
  if (cache.snap && cache.version == v) return cache.snap;
  MutexLock lock(g_mu);
  if (!g_snapshot) {
    g_snapshot =
        std::make_shared<const RuntimeConfig>(RuntimeConfig::from_env());
    g_version.store(1, std::memory_order_release);
  }
  cache.snap = g_snapshot;
  cache.version = g_version.load(std::memory_order_relaxed);
  return cache.snap;
}

void install(RuntimeConfig snapshot) {
  MutexLock lock(g_mu);
  g_snapshot = std::make_shared<const RuntimeConfig>(std::move(snapshot));
  // Monotonic: a TLS cache can never see a (version, different-snapshot)
  // pair collide, because versions are handed out once.
  g_version.fetch_add(1, std::memory_order_release);
}

ScopedOverride::ScopedOverride(std::string_view name, std::string_view value)
    : previous_(current()) {
  RuntimeConfig overridden = *previous_;
  overridden.set(name, value);
  install(std::move(overridden));
}

ScopedOverride::~ScopedOverride() { install(*previous_); }

}  // namespace config

}  // namespace sptx
