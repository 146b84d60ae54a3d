// Measurement support for the repository benchmark: clocks, order
// statistics, a failure ledger, an in-memory span tracer that writes Chrome
// trace-event JSON, resource-usage probes and a STREAM-triad host probe.
//
// Everything here times the library from outside: spans wrap calls into
// public functions, nothing reaches into src/.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

/// Shortest round-trip decimal form of a double (all its digits, no more).
inline std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// Quartiles as Python's statistics.quantiles(v, n=4) computes them (the
/// default "exclusive" method), so the benchmark's own spread numbers match
/// the ones computed from its output with that function.
inline std::vector<double> quartiles(std::vector<double> v) {
  if (v.size() < 2) return {v.empty() ? 0.0 : v[0], v.empty() ? 0.0 : v[0],
                            v.empty() ? 0.0 : v[0]};
  std::sort(v.begin(), v.end());
  const auto m = static_cast<double>(v.size() + 1);
  std::vector<double> out;
  for (int i = 1; i < 4; ++i) {
    const double pos = i * m / 4.0;
    auto j = static_cast<std::size_t>(pos);
    const double delta = pos - static_cast<double>(j);
    j = std::clamp<std::size_t>(j, 1, v.size() - 1);
    out.push_back(v[j - 1] + delta * (v[j] - v[j - 1]));
  }
  return out;
}

/// Attempted/failed operation accounting plus the reason for the first few
/// failures (printed to stderr so a failed run explains itself).
class Ledger {
 public:
  void ok() { ++attempted_; }
  void fail(const std::string& why) {
    ++attempted_;
    ++failed_;
    if (failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  }
  void check(bool good, const std::string& what) {
    if (good) {
      ok();
    } else {
      fail(what);
    }
  }
  /// Run `fn` as one operation; an exception counts as a failure.
  template <typename Fn>
  bool attempt(const std::string& what, Fn&& fn) {
    try {
      fn();
      ok();
      return true;
    } catch (const std::exception& e) {
      fail(what + ": " + e.what());
      return false;
    }
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// In-memory span recorder. Each span has a name, start/end, the parent
/// span open when it began, and a request id shared by every span of one
/// batch or query. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::int64_t request = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    Scope(Scope&& o) noexcept : t_(std::exchange(o.t_, nullptr)), id_(o.id_) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->end(id_);
    }

   private:
    Tracer* t_;
    int id_;
  };

  /// Open a span closed when the returned scope dies.
  [[nodiscard]] Scope scope(const char* name, std::int64_t request = -1) {
    if (!enabled_) return Scope(nullptr, -1);
    return Scope(this, begin(name, request));
  }

  /// Record a span whose bounds were measured elsewhere (e.g. an
  /// Engine::train epoch bounded by two callback invocations).
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int64_t request = -1) {
    if (!enabled_) return;
    spans_.push_back({name, us(start), us(end),
                      stack_.empty() ? -1 : stack_.back(), request});
  }

  /// Total seconds spent in spans called `name`, from span index `from` on.
  double total_s(const std::string& name, std::size_t from = 0) const {
    double s = 0.0;
    for (std::size_t i = from; i < spans_.size(); ++i)
      if (spans_[i].name == name) s += spans_[i].end_us - spans_[i].start_us;
    return s * 1e-6;
  }

  /// Number of spans called `name`, from span index `from` on.
  std::int64_t count(const std::string& name, std::size_t from = 0) const {
    std::int64_t n = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) n += spans_[i].name == name;
    return n;
  }

  /// Total seconds of the direct children of spans called `parent`, from
  /// span index `from` on.
  double children_s(const std::string& parent, std::size_t from = 0) const {
    double s = 0.0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      if (sp.parent >= 0 &&
          spans_[static_cast<std::size_t>(sp.parent)].name == parent)
        s += sp.end_us - sp.start_us;
    }
    return s * 1e-6;
  }

  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" complete events; parent and request id
  /// ride in args). Loads in chrome://tracing and Perfetto.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":" << quote(sp.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(sp.start_us)
          << ",\"dur\":" << num(sp.end_us - sp.start_us)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << sp.parent
          << ",\"request\":" << sp.request << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }
  int begin(const char* name, std::int64_t request) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, us(Clock::now()), 0.0,
                      stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = us(Clock::now());
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Peak resident set of this process (RUSAGE_SELF), MiB.
inline double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Largest peak resident set among reaped child processes
/// (RUSAGE_CHILDREN), MiB — the DDP worker processes.
inline double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// STREAM triad a = b + s·c over arrays of `bytes_per_array` each, split
/// across `threads` threads; best of `passes` passes, GB/s counting three
/// arrays of traffic per pass (no write-allocate credit).
inline double triad_gbps(std::size_t bytes_per_array, int threads, int passes) {
  const std::size_t n = bytes_per_array / sizeof(double);
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  double best = 0.0;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t]() {
        const std::size_t lo = n * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads);
        const std::size_t hi = n * static_cast<std::size_t>(t + 1) / static_cast<std::size_t>(threads);
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    }
    for (auto& th : pool) th.join();
    const double s = seconds_since(t0);
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) / s / 1e9);
  }
  // Keep the stores observable so the loop cannot be elided.
  if (a[n / 2] != 7.0) best = -best;
  return best;
}

/// Ordered JSON object of numbers/strings, built incrementally.
class JsonObject {
 public:
  JsonObject& set(const std::string& k, double v) { return raw(k, num(v)); }
  JsonObject& set(const std::string& k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObject& set(const std::string& k, int v) {
    return raw(k, std::to_string(v));
  }
  JsonObject& set(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonObject& set(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  JsonObject& set(const std::string& k, const char* v) {
    return raw(k, quote(v));
  }
  JsonObject& set(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ",";
      s += num(v[i]);
    }
    return raw(k, s + "]");
  }
  JsonObject& set(const std::string& k, const JsonObject& v) {
    return raw(k, v.str());
  }
  JsonObject& raw(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, v);
    return *this;
  }
  std::string str() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) s += ", ";
      s += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
