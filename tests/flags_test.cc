// Tests for the command-line flag parser, the ParseFlagsOrExit entry point
// and the workload flag group.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/thread_pool.h"
#include "src/core/experiment.h"
#include "src/workload/dataset.h"

namespace pensieve {
namespace {

FlagParser MakeParser() {
  FlagParser flags;
  flags.AddString("name", "default", "a string");
  flags.AddInt("count", 7, "an int");
  flags.AddDouble("rate", 1.5, "a double");
  flags.AddBool("verbose", false, "a bool");
  return flags;
}

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return argv;
}

TEST(FlagsTest, DefaultsApplyWithoutArguments) {
  FlagParser flags = MakeParser();
  std::vector<std::string> args;
  auto argv = Argv(args);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags.GetString("name"), "default");
  EXPECT_EQ(flags.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 1.5);
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(FlagsTest, EqualsSyntax) {
  FlagParser flags = MakeParser();
  std::vector<std::string> args = {"--name=abc", "--count=42", "--rate=0.25",
                                   "--verbose=true"};
  auto argv = Argv(args);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags.GetString("name"), "abc");
  EXPECT_EQ(flags.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, SpaceSeparatedValues) {
  FlagParser flags = MakeParser();
  std::vector<std::string> args = {"--name", "xyz", "--count", "-3"};
  auto argv = Argv(args);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags.GetString("name"), "xyz");
  EXPECT_EQ(flags.GetInt("count"), -3);
}

TEST(FlagsTest, BareBoolMeansTrue) {
  FlagParser flags = MakeParser();
  std::vector<std::string> args = {"--verbose"};
  auto argv = Argv(args);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, BoolTakesOnAndOff) {
  for (const auto& [value, want] :
       {std::pair<std::string, bool>{"on", true}, {"off", false}}) {
    FlagParser flags = MakeParser();
    flags.AddBool("switch", !want, "a switch whose default is the other way");
    std::vector<std::string> args = {"--switch=" + value};
    auto argv = Argv(args);
    ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
    EXPECT_EQ(flags.GetBool("switch"), want) << value;
  }
  FlagParser flags = MakeParser();
  std::vector<std::string> args = {"--verbose=maybe"};
  auto argv = Argv(args);
  const Status status = flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("on/off"), std::string::npos) << status.ToString();
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  FlagParser flags = MakeParser();
  std::vector<std::string> args = {"input.txt", "--count=1", "output.txt"};
  auto argv = Argv(args);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, UnknownFlagRejected) {
  FlagParser flags = MakeParser();
  std::vector<std::string> args = {"--nope=1"};
  auto argv = Argv(args);
  EXPECT_EQ(flags.Parse(static_cast<int>(argv.size()), argv.data()).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagsTest, MalformedValuesRejected) {
  {
    FlagParser flags = MakeParser();
    std::vector<std::string> args = {"--count=twelve"};
    auto argv = Argv(args);
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  }
  {
    FlagParser flags = MakeParser();
    std::vector<std::string> args = {"--rate=fast"};
    auto argv = Argv(args);
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  }
  {
    FlagParser flags = MakeParser();
    std::vector<std::string> args = {"--verbose=maybe"};
    auto argv = Argv(args);
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  }
}

TEST(FlagsTest, MissingValueRejected) {
  FlagParser flags = MakeParser();
  std::vector<std::string> args = {"--name"};
  auto argv = Argv(args);
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagsTest, HelpListsEveryFlag) {
  FlagParser flags = MakeParser();
  const std::string help = flags.Help();
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("--rate"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
}

// --- ParseFlagsOrExit ---------------------------------------------------------
// The error paths exit the process, so they run as death tests. "threadsafe"
// re-executes the test binary for each one instead of forking a process
// that may already hold thread-pool workers.

void ParseOrExit(FlagParser* flags, std::vector<std::string> args) {
  auto argv = Argv(args);
  ParseFlagsOrExit(flags, static_cast<int>(argv.size()), argv.data(), "prog: a test");
}

TEST(ParseFlagsOrExitTest, ParsesFlagsAndSizesThePool) {
  FlagParser flags = MakeParser();
  ParseOrExit(&flags, {"--count=3", "--threads=3"});
  EXPECT_EQ(flags.GetInt("count"), 3);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3);
  ParseOrExit(&flags, {});
  EXPECT_EQ(ThreadPool::Global().num_threads(), ThreadPool::DefaultThreads());
}

TEST(ParseFlagsOrExitTest, MalformedCommandLinesExitTwo) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  FlagParser flags = MakeParser();
  EXPECT_EXIT(ParseOrExit(&flags, {"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag --bogus(.|\n)*flags:(.|\n)*--threads");
  EXPECT_EXIT(ParseOrExit(&flags, {"--count=twelve"}), ::testing::ExitedWithCode(2),
              "--count expects an integer");
  EXPECT_EXIT(ParseOrExit(&flags, {"--count=1", "stray"}),
              ::testing::ExitedWithCode(2), "unexpected argument 'stray'");
  EXPECT_EXIT(ParseOrExit(&flags, {"--threads"}), ::testing::ExitedWithCode(2),
              "--threads is missing a value");
}

TEST(ParseFlagsOrExitTest, HelpExitsZero) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  FlagParser flags = MakeParser();
  EXPECT_EXIT(ParseOrExit(&flags, {"--help"}), ::testing::ExitedWithCode(0), "");
  // --help wins over the other flags but not over a parse error.
  EXPECT_EXIT(ParseOrExit(&flags, {"--help", "--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag --bogus");
}

// --- Workload flag group -----------------------------------------------------

TEST(WorkloadFlagsTest, DatasetProfileByName) {
  DatasetProfile profile;
  ASSERT_TRUE(DatasetProfileByName("sharegpt", &profile));
  EXPECT_EQ(profile.name, "sharegpt");
  EXPECT_DOUBLE_EQ(profile.mean_turns, ShareGptProfile().mean_turns);
  ASSERT_TRUE(DatasetProfileByName("ultrachat", &profile));
  EXPECT_EQ(profile.name, "ultrachat");
  EXPECT_DOUBLE_EQ(profile.mean_turns, UltraChatProfile().mean_turns);
  EXPECT_FALSE(DatasetProfileByName("ultrachatt", &profile));
  EXPECT_FALSE(DatasetProfileByName("ShareGPT", &profile));
  EXPECT_FALSE(DatasetProfileByName("", &profile));
}

Workload ParseWorkload(const WorkloadDefaults& defaults, std::vector<std::string> args) {
  FlagParser flags;
  AddWorkloadFlags(&flags, defaults);
  ParseOrExit(&flags, std::move(args));
  return WorkloadFromFlags(flags);
}

TEST(WorkloadFlagsTest, DefaultsFillTheTrace) {
  const Workload w = ParseWorkload(
      {.model = "opt-66b", .rate = 1.5, .conversations = 77, .think = 20.0}, {});
  EXPECT_EQ(w.model.name, Opt66BConfig().name);
  EXPECT_EQ(w.profile.name, "sharegpt");
  EXPECT_EQ(w.trace.num_conversations, 77);
  EXPECT_DOUBLE_EQ(w.trace.conversation_rate, 1.5);
  EXPECT_DOUBLE_EQ(w.trace.mean_think_time, 20.0);
  EXPECT_EQ(w.trace.seed, 42u);
  // Fields outside the group keep their TraceOptions defaults.
  EXPECT_EQ(w.trace.num_prefix_templates, 0);
  EXPECT_EQ(w.trace.prefix_len, 0);
}

TEST(WorkloadFlagsTest, FlagsOverrideDefaults) {
  const Workload w = ParseWorkload(
      {.conversations = 10},
      {"--model=llama2-13b", "--dataset=ultrachat", "--rate=0.25", "--conversations=5",
       "--think=7", "--seed=9"});
  EXPECT_EQ(w.model.name, Llama2_13BConfig().name);
  EXPECT_EQ(w.profile.name, "ultrachat");
  EXPECT_EQ(w.trace.num_conversations, 5);
  EXPECT_DOUBLE_EQ(w.trace.conversation_rate, 0.25);
  EXPECT_DOUBLE_EQ(w.trace.mean_think_time, 7.0);
  EXPECT_EQ(w.trace.seed, 9u);
}

TEST(WorkloadFlagsTest, ConversationsFlagIsOptional) {
  FlagParser flags;
  AddWorkloadFlags(&flags, {});
  EXPECT_FALSE(flags.Has("conversations"));
  EXPECT_TRUE(flags.Has("model"));
  ParseOrExit(&flags, {});
  EXPECT_EQ(WorkloadFromFlags(flags).trace.num_conversations,
            TraceOptions().num_conversations);
}

TEST(WorkloadFlagsTest, UnknownNamesExitTwo) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(ParseWorkload({}, {"--model=bogus"}), ::testing::ExitedWithCode(2),
              "unknown model 'bogus'");
  EXPECT_EXIT(ParseWorkload({}, {"--dataset=ultrachatt"}), ::testing::ExitedWithCode(2),
              "unknown dataset 'ultrachatt'");
  // Without a --conversations flag the group rejects one like any unknown flag.
  EXPECT_EXIT(ParseWorkload({}, {"--conversations=5"}), ::testing::ExitedWithCode(2),
              "unknown flag --conversations");
}

}  // namespace
}  // namespace pensieve
