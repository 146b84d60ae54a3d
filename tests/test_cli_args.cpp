// Tests for the hardened CLI argument parser (common/cli_args.hpp).
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "src/common/cli_args.hpp"

namespace sptx::cli {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return parse_args(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, ParsesCommandAndOptionPairs) {
  const Args args =
      parse({"sptx", "train", "--model", "TransE", "--epochs", "10"});
  EXPECT_EQ(args.command, "train");
  EXPECT_EQ(args.get("model", ""), "TransE");
  EXPECT_DOUBLE_EQ(args.num("epochs", 0), 10.0);
  EXPECT_FALSE(args.has("dim"));
  EXPECT_DOUBLE_EQ(args.num("dim", 128), 128.0);  // fallback
}

TEST(CliArgs, EmptyArgvYieldsEmptyCommand) {
  EXPECT_EQ(parse({"sptx"}).command, "");
  EXPECT_TRUE(parse({"sptx"}).options.empty());
}

TEST(CliArgs, MissingValueIsAnError) {
  // The old parser silently dropped a trailing flag (for (i; i+1<argc; i+=2)
  // never saw it) — training would run with defaults the user did not ask
  // for. Now it is a hard error naming the option.
  try {
    parse({"sptx", "train", "--epochs"});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--epochs"), std::string::npos);
  }
}

TEST(CliArgs, NonOptionTokenIsAnError) {
  EXPECT_THROW(parse({"sptx", "train", "epochs", "10"}), Error);
  EXPECT_THROW(parse({"sptx", "train", "-epochs", "10"}), Error);
  EXPECT_THROW(parse({"sptx", "train", "--", "10"}), Error);
}

TEST(CliArgs, NumRejectsNonNumericValues) {
  const Args args = parse({"sptx", "train", "--epochs", "ten"});
  EXPECT_THROW(args.num("epochs", 0), Error);
  // Negative and fractional values parse fine.
  const Args ok = parse({"sptx", "train", "--margin", "-0.5"});
  EXPECT_DOUBLE_EQ(ok.num("margin", 0), -0.5);
}

TEST(CliArgs, KnownCommandMatchesExactly) {
  constexpr std::array<std::string_view, 3> known = {"train", "eval", "info"};
  EXPECT_TRUE(known_command("train", known));
  EXPECT_FALSE(known_command("Train", known));
  EXPECT_FALSE(known_command("trains", known));
  EXPECT_FALSE(known_command("", known));
}

// `sptx train --ddp-mode ...` does not read the single-process trainer's
// options; a non-default value must fail naming the option instead of
// training silently without it.
TEST(CliArgs, DdpTrainRejectsSingleProcessOptions) {
  const std::vector<std::pair<const char*, const char*>> rejected = {
      {"--optimizer", "adagrad"},     {"--shuffle", "1"},
      {"--resample-negatives", "1"},  {"--negatives", "4"},
      {"--corruption", "bernoulli"},  {"--weight-decay", "0.01"},
      {"--clip-norm", "5"},           {"--patience", "3"},
  };
  for (const auto& [flag, value] : rejected) {
    const Args args = parse({"sptx", "train", "--ddp-mode", "threads", flag,
                             value});
    try {
      reject_non_default(args, kSingleProcessTrainOptions, "ddp training");
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
  // Defaults, spelled any way that parses to the same value, stay legal.
  const Args defaults = parse({"sptx", "train", "--ddp-mode", "threads",
                               "--optimizer", "sgd", "--shuffle", "0",
                               "--negatives", "1.0", "--weight-decay", "0.0",
                               "--corruption", "uniform"});
  EXPECT_NO_THROW(
      reject_non_default(defaults, kSingleProcessTrainOptions, "ddp"));
}

}  // namespace
}  // namespace sptx::cli
