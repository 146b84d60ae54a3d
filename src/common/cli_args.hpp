// Command-line argument parsing for the sptx CLI — header-only so the
// parser is unit-testable (tests/test_cli_args.cpp) apart from main().
//
// Grammar: sptx <command> [--option value ...]. Parsing is strict where the
// old CLI was silently lossy: a token that is not an --option, or an option
// with no following value, is an error with a message naming the offender —
// not a half-parsed run that trains with defaults the user did not ask for.
#pragma once

#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "src/common/error.hpp"

namespace sptx::cli {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }

  double num(const std::string& key, double fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    SPTX_CHECK(end != it->second.c_str() && *end == '\0',
               "option --" << key << " expects a number, got '" << it->second
                           << "'");
    return v;
  }
};

/// Parse argv into (command, options). Throws Error on a token that is not
/// an --option flag or on an option flag with no value following it.
inline Args parse_args(int argc, const char* const* argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view token = argv[i];
    SPTX_CHECK(token.size() > 2 && token.substr(0, 2) == "--",
               "expected an --option, got '" << token << "'");
    SPTX_CHECK(i + 1 < argc,
               "option " << token << " is missing its value");
    args.options[std::string(token.substr(2))] = argv[++i];
  }
  return args;
}

/// An option and the value that leaves its feature off.
struct OptionDefault {
  std::string_view name;
  std::string_view value;
};

/// `sptx train` options that only the single-process trainer reads. The
/// data-parallel path (--ddp-workers / --ddp-mode) trains with plain SGD on
/// fixed-order batches, one uniform negative per positive drawn per batch,
/// with no weight decay, clipping or early stopping.
inline constexpr OptionDefault kSingleProcessTrainOptions[] = {
    {"optimizer", "sgd"},        {"shuffle", "0"},
    {"resample-negatives", "0"}, {"negatives", "1"},
    {"corruption", "uniform"},   {"weight-decay", "0"},
    {"clip-norm", "0"},          {"patience", "0"},
};

/// Throw naming the first of `options` given with a value other than its
/// default (compared as numbers when the default is numeric), so a run
/// through `context`, which does not read them, never trains silently with
/// a setting the user did not get.
inline void reject_non_default(const Args& args,
                               std::span<const OptionDefault> options,
                               std::string_view context) {
  for (const OptionDefault& option : options) {
    const std::string key(option.name);
    if (!args.has(key)) continue;
    const std::string fallback(option.value);
    char* end = nullptr;
    const double number = std::strtod(fallback.c_str(), &end);
    const bool is_default = *end == '\0'
                                ? args.num(key, number) == number
                                : args.get(key, fallback) == fallback;
    SPTX_CHECK(is_default, "option --" << key << " " << args.get(key, "")
                                       << " is not supported by " << context
                                       << " (only --" << key << " "
                                       << fallback << ")");
  }
}

/// True when `command` is one of `known` — main() rejects the rest with a
/// message listing the valid commands.
inline bool known_command(std::string_view command,
                          std::span<const std::string_view> known) {
  for (std::string_view k : known)
    if (command == k) return true;
  return false;
}

}  // namespace sptx::cli
