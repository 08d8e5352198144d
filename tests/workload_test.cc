// Tests for workload synthesis: dataset profiles (paper Table 2) and traces.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "src/workload/dataset.h"
#include "src/workload/trace.h"
#include "src/workload/trace_io.h"

namespace pensieve {
namespace {

// --- Dataset profiles / Table 2 ------------------------------------------------

TEST(DatasetProfileTest, Table2Means) {
  DatasetProfile sg = ShareGptProfile();
  EXPECT_NEAR(sg.mean_turns, 5.56, 1e-9);
  EXPECT_NEAR(sg.mean_input_len, 37.77, 1e-9);
  EXPECT_NEAR(sg.mean_output_len, 204.58, 1e-9);
  EXPECT_EQ(sg.max_context, 16384);

  DatasetProfile uc = UltraChatProfile();
  EXPECT_NEAR(uc.mean_turns, 3.86, 1e-9);
  EXPECT_NEAR(uc.mean_input_len, 51.78, 1e-9);
  EXPECT_NEAR(uc.mean_output_len, 257.81, 1e-9);
}

class DatasetStatisticsTest : public ::testing::TestWithParam<DatasetProfile> {};

TEST_P(DatasetStatisticsTest, GeneratedStatisticsMatchTable2) {
  const DatasetProfile profile = GetParam();
  ConversationGenerator gen(profile, 1234);
  double total_turns = 0.0;
  double total_input = 0.0;
  double total_output = 0.0;
  int64_t total_requests = 0;
  const int kConversations = 20000;
  for (int i = 0; i < kConversations; ++i) {
    ConversationSpec spec = gen.Next();
    EXPECT_GE(spec.turns.size(), 1u);
    EXPECT_LE(spec.TotalTokens(), profile.max_context);
    total_turns += static_cast<double>(spec.turns.size());
    for (const TurnSpec& turn : spec.turns) {
      EXPECT_GE(turn.input_len, 1);
      EXPECT_GE(turn.output_len, 1);
      total_input += static_cast<double>(turn.input_len);
      total_output += static_cast<double>(turn.output_len);
      ++total_requests;
    }
  }
  const double mean_turns = total_turns / kConversations;
  const double mean_input = total_input / static_cast<double>(total_requests);
  const double mean_output = total_output / static_cast<double>(total_requests);
  // The 16K context cap truncates long conversations, pulling the means
  // slightly below the raw distribution targets; allow 15%.
  EXPECT_NEAR(mean_turns, profile.mean_turns, profile.mean_turns * 0.15);
  EXPECT_NEAR(mean_input, profile.mean_input_len, profile.mean_input_len * 0.15);
  EXPECT_NEAR(mean_output, profile.mean_output_len, profile.mean_output_len * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Profiles, DatasetStatisticsTest,
                         ::testing::Values(ShareGptProfile(), UltraChatProfile()),
                         [](const ::testing::TestParamInfo<DatasetProfile>& info) {
                           return info.param.name;
                         });

TEST(ConversationGeneratorTest, DeterministicForSeed) {
  ConversationGenerator a(ShareGptProfile(), 7);
  ConversationGenerator b(ShareGptProfile(), 7);
  for (int i = 0; i < 50; ++i) {
    ConversationSpec sa = a.Next();
    ConversationSpec sb = b.Next();
    ASSERT_EQ(sa.turns.size(), sb.turns.size());
    for (size_t t = 0; t < sa.turns.size(); ++t) {
      EXPECT_EQ(sa.turns[t].input_len, sb.turns[t].input_len);
      EXPECT_EQ(sa.turns[t].output_len, sb.turns[t].output_len);
    }
  }
}

TEST(ConversationGeneratorTest, AssignsSequentialIds) {
  ConversationGenerator gen(UltraChatProfile(), 3);
  EXPECT_EQ(gen.Next().conversation_id, 0);
  EXPECT_EQ(gen.Next().conversation_id, 1);
  EXPECT_EQ(gen.Next().conversation_id, 2);
}

TEST(ConversationSpecTest, HistoryAccumulates) {
  ConversationSpec spec;
  spec.turns = {{10, 100}, {20, 200}, {5, 50}};
  EXPECT_EQ(spec.HistoryLenBeforeTurn(0), 0);
  EXPECT_EQ(spec.HistoryLenBeforeTurn(1), 110);
  EXPECT_EQ(spec.HistoryLenBeforeTurn(2), 330);
  EXPECT_EQ(spec.TotalTokens(), 385);
}

TEST(SyntheticTokenTest, DeterministicAndInRange) {
  std::set<int32_t> values;
  for (int64_t pos = 0; pos < 1000; ++pos) {
    const int32_t t = SyntheticToken(42, pos, 128);
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 128);
    EXPECT_EQ(t, SyntheticToken(42, pos, 128));
    values.insert(t);
  }
  // Well spread over the vocabulary.
  EXPECT_GT(values.size(), 100u);
}

TEST(SyntheticTokenTest, DiffersAcrossConversations) {
  int differences = 0;
  for (int64_t pos = 0; pos < 100; ++pos) {
    if (SyntheticToken(1, pos, 1 << 20) != SyntheticToken(2, pos, 1 << 20)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 95);
}

// --- WorkloadTrace ---------------------------------------------------------------

TEST(WorkloadTraceTest, ArrivalsAreIncreasingPoisson) {
  TraceOptions options;
  options.num_conversations = 5000;
  options.conversation_rate = 2.0;
  options.seed = 9;
  WorkloadTrace trace(ShareGptProfile(), options);
  ASSERT_EQ(trace.conversations().size(), 5000u);
  double prev = 0.0;
  double last = 0.0;
  for (const TraceConversation& conv : trace.conversations()) {
    EXPECT_GT(conv.first_arrival, prev);
    prev = conv.first_arrival;
    last = conv.first_arrival;
  }
  // 5000 arrivals at 2/s should take roughly 2500 seconds.
  EXPECT_NEAR(last, 2500.0, 200.0);
}

TEST(WorkloadTraceTest, ThinkTimesMatchMean) {
  TraceOptions options;
  options.num_conversations = 5000;
  options.conversation_rate = 1.0;
  options.mean_think_time = 60.0;
  options.seed = 10;
  WorkloadTrace trace(ShareGptProfile(), options);
  double sum = 0.0;
  int64_t count = 0;
  for (const TraceConversation& conv : trace.conversations()) {
    EXPECT_EQ(conv.think_times.size(), conv.spec.turns.size() - 1);
    for (double t : conv.think_times) {
      sum += t;
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_NEAR(sum / static_cast<double>(count), 60.0, 3.0);
}

TEST(WorkloadTraceTest, TotalRequestsCountsTurns) {
  TraceOptions options;
  options.num_conversations = 100;
  options.conversation_rate = 1.0;
  WorkloadTrace trace(UltraChatProfile(), options);
  int64_t expected = 0;
  for (const TraceConversation& conv : trace.conversations()) {
    expected += static_cast<int64_t>(conv.spec.turns.size());
  }
  EXPECT_EQ(trace.TotalRequests(), expected);
}

TEST(WorkloadTraceTest, DeterministicForSeed) {
  TraceOptions options;
  options.num_conversations = 50;
  options.conversation_rate = 1.5;
  options.seed = 77;
  WorkloadTrace a(ShareGptProfile(), options);
  WorkloadTrace b(ShareGptProfile(), options);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.conversations()[i].first_arrival,
                     b.conversations()[i].first_arrival);
  }
}

TEST(WorkloadTraceTest, PrefixTemplateKnobsAssignRoundRobin) {
  TraceOptions base;
  base.num_conversations = 60;
  base.conversation_rate = 1.0;
  base.seed = 21;
  TraceOptions templated = base;
  templated.num_prefix_templates = 4;
  templated.prefix_len = 64;
  WorkloadTrace plain(ShareGptProfile(), base);
  WorkloadTrace with(ShareGptProfile(), templated);
  ASSERT_EQ(plain.conversations().size(), with.conversations().size());
  const int64_t max_context = ShareGptProfile().max_context;
  int64_t assigned = 0;
  for (size_t i = 0; i < with.conversations().size(); ++i) {
    const ConversationSpec& p = plain.conversations()[i].spec;
    const ConversationSpec& t = with.conversations()[i].spec;
    ASSERT_EQ(t.turns.size(), p.turns.size());
    if (t.template_id >= 0) {
      ++assigned;
      EXPECT_EQ(t.template_id, static_cast<int32_t>(t.conversation_id % 4));
      EXPECT_EQ(t.template_prefix_len, 64);
      // The prefix rides in front of the first turn's prompt; nothing else
      // about the conversation changes.
      EXPECT_EQ(t.turns[0].input_len, p.turns[0].input_len + 64);
    } else {
      // Only oversized conversations are exempt.
      EXPECT_GT(p.TotalTokens() + 64, max_context);
      EXPECT_EQ(t.turns[0].input_len, p.turns[0].input_len);
    }
    for (size_t turn = 1; turn < t.turns.size(); ++turn) {
      EXPECT_EQ(t.turns[turn].input_len, p.turns[turn].input_len);
      EXPECT_EQ(t.turns[turn].output_len, p.turns[turn].output_len);
    }
  }
  EXPECT_GT(assigned, 50);
}

TEST(WorkloadTraceTest, PrefixTemplatesDrawNothingFromRng) {
  // Template assignment is deterministic bookkeeping: the Poisson arrival
  // process and think times must be bit-identical with and without it.
  TraceOptions base;
  base.num_conversations = 40;
  base.conversation_rate = 2.0;
  base.mean_think_time = 30.0;
  base.seed = 13;
  TraceOptions templated = base;
  templated.num_prefix_templates = 8;
  templated.prefix_len = 96;
  WorkloadTrace plain(ShareGptProfile(), base);
  WorkloadTrace with(ShareGptProfile(), templated);
  ASSERT_EQ(plain.conversations().size(), with.conversations().size());
  for (size_t i = 0; i < plain.conversations().size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.conversations()[i].first_arrival,
                     with.conversations()[i].first_arrival);
    ASSERT_EQ(plain.conversations()[i].think_times.size(),
              with.conversations()[i].think_times.size());
    for (size_t t = 0; t < plain.conversations()[i].think_times.size(); ++t) {
      EXPECT_DOUBLE_EQ(plain.conversations()[i].think_times[t],
                       with.conversations()[i].think_times[t]);
    }
  }
}

TEST(WorkloadTraceTest, HigherRateCompressesArrivals) {
  TraceOptions slow;
  slow.num_conversations = 1000;
  slow.conversation_rate = 0.5;
  TraceOptions fast = slow;
  fast.conversation_rate = 4.0;
  WorkloadTrace a(ShareGptProfile(), slow);
  WorkloadTrace b(ShareGptProfile(), fast);
  EXPECT_GT(a.conversations().back().first_arrival,
            4.0 * b.conversations().back().first_arrival);
}


// --- Trace I/O -------------------------------------------------------------------

std::string TraceTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// tests/golden/sharegpt_trace.csv: 20 ShareGPT-profile conversations, 71
// turns, one row per turn in conversation order. pensieve_sim's golden
// trace_csv line replays the same file.
const std::string kTraceFixture = PENSIEVE_TRACE_FIXTURE;

TEST(TraceIoTest, RoundTripPreservesConversations) {
  auto loaded = LoadConversationsCsv(kTraceFixture);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 20u);
  const ConversationSpec& first = (*loaded)[0];
  EXPECT_EQ(first.conversation_id, 0);
  ASSERT_EQ(first.turns.size(), 6u);
  EXPECT_EQ(first.turns[0].input_len, 11);
  EXPECT_EQ(first.turns[0].output_len, 331);
  EXPECT_EQ(first.turns[5].input_len, 52);
  EXPECT_EQ(first.turns[5].output_len, 92);
  // Printing the loaded turns back in the file's format reproduces the file.
  std::ostringstream printed;
  printed << "conversation_id,turn,input_len,output_len\n";
  for (const ConversationSpec& conv : *loaded) {
    for (size_t t = 0; t < conv.turns.size(); ++t) {
      printed << conv.conversation_id << ',' << t << ',' << conv.turns[t].input_len
              << ',' << conv.turns[t].output_len << '\n';
    }
  }
  std::ifstream in(kTraceFixture);
  std::ostringstream file;
  file << in.rdbuf();
  EXPECT_EQ(printed.str(), file.str());
}

TEST(TraceIoTest, RejectsMalformedFiles) {
  const std::string path = TraceTempPath("trace_bad.csv");
  auto write = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  };
  write("wrong,header\n");
  EXPECT_EQ(LoadConversationsCsv(path).status().code(), StatusCode::kInvalidArgument);
  write("conversation_id,turn,input_len,output_len\n1,0,abc,5\n");
  EXPECT_EQ(LoadConversationsCsv(path).status().code(), StatusCode::kInvalidArgument);
  write("conversation_id,turn,input_len,output_len\n1,1,5,5\n");  // no turn 0
  EXPECT_EQ(LoadConversationsCsv(path).status().code(), StatusCode::kInvalidArgument);
  write("conversation_id,turn,input_len,output_len\n1,0,5,5\n1,2,5,5\n");  // gap
  EXPECT_EQ(LoadConversationsCsv(path).status().code(), StatusCode::kInvalidArgument);
  write("conversation_id,turn,input_len,output_len\n1,0,0,5\n");  // zero length
  EXPECT_EQ(LoadConversationsCsv(path).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadConversationsCsv("/does/not/exist.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(TraceIoTest, InterleavedConversationsSupported) {
  const std::string path = TraceTempPath("trace_interleaved.csv");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "conversation_id,turn,input_len,output_len\n"
           "7,0,10,20\n"
           "9,0,5,5\n"
           "7,1,3,4\n";
  }
  auto loaded = LoadConversationsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].turns.size(), 2u);
  EXPECT_EQ((*loaded)[1].turns.size(), 1u);
}

TEST(TraceIoTest, LoadedConversationsBuildAReplayableTrace) {
  // Ten two-turn conversations with sparse ids 10, 20, ..., 100.
  const std::string path = TraceTempPath("trace_replay.csv");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "conversation_id,turn,input_len,output_len\n";
    for (int id = 10; id <= 100; id += 10) {
      out << id << ",0," << id << ",20\n" << id << ",1,5," << id << "\n";
    }
  }
  auto loaded = LoadConversationsCsv(path);
  ASSERT_TRUE(loaded.ok());

  TraceOptions options;
  options.num_conversations = 5;  // cap
  options.conversation_rate = 1.0;
  WorkloadTrace trace(std::move(loaded).value(), UltraChatProfile(), options);
  ASSERT_EQ(trace.conversations().size(), 5u);
  for (size_t i = 0; i < trace.conversations().size(); ++i) {
    // Ids re-assigned densely so the driver can index by them.
    EXPECT_EQ(trace.conversations()[i].spec.conversation_id,
              static_cast<int64_t>(i));
    EXPECT_EQ(trace.conversations()[i].think_times.size(),
              trace.conversations()[i].spec.turns.size() - 1);
  }
}

}  // namespace
}  // namespace pensieve
