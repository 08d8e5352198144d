#include "perfbench/driver/numeric_chat.h"

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "perfbench/driver/layer_replay.h"
#include "perfbench/driver/spans.h"
#include "src/core/stateful_server.h"
#include "src/eviction/cost_estimator.h"

namespace perfbench {

namespace {

using pensieve::StatefulLlmServer;
using pensieve::StatefulServerConfig;

// Cache geometry: the GPU tier holds about a third of the live working set
// (6 conversations of up to 640 tokens plus two pinned 64-token system
// prompts) and the CPU tier a little more, so returning turns both swap in
// and recompute dropped prefixes.
constexpr int64_t kBlockSize = 16;
constexpr int64_t kGpuBlocks = 80;
constexpr int64_t kCpuBlocks = 96;
// The reference replay never evicts.
constexpr int64_t kReplayGpuBlocks = 1024;
constexpr int64_t kReplayCpuBlocks = 16;

constexpr int kSlots = 6;  // conversations live at once
constexpr int64_t kMaxConversationTokens = 640;
constexpr int kPrefixes = 2;
constexpr int64_t kPrefixLen = 64;  // whole blocks, served from the pinned prefix
constexpr int64_t kShortPromptMin = 8, kShortPromptMax = 24;
constexpr int64_t kLongPromptMin = 96, kLongPromptMax = 192;
constexpr int64_t kOutputMin = 8, kOutputMax = 24;

// One client operation: optionally end a conversation, optionally open a new
// one (from a shared system prompt), then one Chat turn.
struct Op {
  int64_t conversation = 0;
  int64_t end_conversation = -1;
  bool new_conversation = false;
  int prefix = -1;
  std::vector<int32_t> prompt;
  int64_t max_new_tokens = 0;
};

struct Plan {
  std::vector<std::vector<int32_t>> prefixes;
  std::vector<Op> ops;
};

// Stratified in blocks of kBlockTurns turns: every block visits each slot the
// same number of times and holds the same (prompt length, output length)
// pairs, in a seeded order. A pass therefore carries the same turn shapes
// whatever the seed; the seed moves the interleaving, the token values and the
// conversation boundaries.
constexpr int64_t kBlockTurns = 60;  // a multiple of kSlots and of 20
constexpr int64_t kLongPerTwenty = 7;  // 35% long prompts
constexpr int64_t kPlannedTurns = 2 * kBlockTurns;

struct TurnShape {
  int64_t prompt_len = 0;
  int64_t output_len = 0;
};

// The block's turn shapes: evenly spaced long and short prompt lengths, and
// evenly spaced output lengths dealt to them with a fixed stride (coprime to
// kBlockTurns) so long prompts get both short and long outputs.
std::vector<TurnShape> BlockShapes() {
  const auto even = [](int64_t lo, int64_t hi, int64_t i, int64_t n) {
    return lo + (hi - lo) * i / std::max<int64_t>(1, n - 1);
  };
  const int64_t longs = kBlockTurns * kLongPerTwenty / 20;
  std::vector<TurnShape> shapes;
  for (int64_t i = 0; i < kBlockTurns; ++i) {
    TurnShape t;
    t.prompt_len = i < longs
                       ? even(kLongPromptMin, kLongPromptMax, i, longs)
                       : even(kShortPromptMin, kShortPromptMax, i - longs, kBlockTurns - longs);
    t.output_len = even(kOutputMin, kOutputMax, (i * 7) % kBlockTurns, kBlockTurns);
    shapes.push_back(t);
  }
  return shapes;
}

Plan MakePlan(uint64_t seed, int32_t vocab) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const auto tokens = [&](int64_t n) {
    std::uniform_int_distribution<int32_t> token(0, vocab - 1);
    std::vector<int32_t> out(static_cast<size_t>(n));
    for (int32_t& t : out) {
      t = token(rng);
    }
    return out;
  };
  Plan plan;
  for (int i = 0; i < kPrefixes; ++i) {
    plan.prefixes.push_back(tokens(kPrefixLen));
  }
  struct Slot {
    int64_t conversation = -1;
    int64_t tokens = 0;
  };
  std::vector<Slot> slots(kSlots);
  int64_t next_conversation = 0;
  // Every pass opens with a prompt as long as a conversation may grow, so the
  // largest forward batch, and with it peak activation memory, is the same
  // whatever the seed (a dropped-prefix recompute is never longer). It is
  // slot 0's first conversation, ended on that slot's next visit.
  Op lead;
  lead.conversation = next_conversation++;
  lead.new_conversation = true;
  lead.prompt = tokens(kMaxConversationTokens - kOutputMin);
  lead.max_new_tokens = kOutputMin;
  plan.ops.push_back(std::move(lead));
  slots[0] = {0, kMaxConversationTokens};
  while (static_cast<int64_t>(plan.ops.size()) < kPlannedTurns) {
    std::vector<int64_t> slot_order;
    for (int64_t i = 0; i < kBlockTurns; ++i) {
      slot_order.push_back(i % kSlots);
    }
    std::shuffle(slot_order.begin(), slot_order.end(), rng);
    std::vector<TurnShape> shapes = BlockShapes();
    std::shuffle(shapes.begin(), shapes.end(), rng);
    for (int64_t i = 0; i < kBlockTurns; ++i) {
      Slot& slot = slots[static_cast<size_t>(slot_order[static_cast<size_t>(i)])];
      Op op;
      const int64_t prompt_len = shapes[static_cast<size_t>(i)].prompt_len;
      op.max_new_tokens = shapes[static_cast<size_t>(i)].output_len;
      if (slot.conversation < 0 ||
          slot.tokens + kPrefixLen + prompt_len + op.max_new_tokens > kMaxConversationTokens) {
        op.end_conversation = slot.conversation;
        slot = {next_conversation++, 0};
        op.new_conversation = true;
        // Two in five new conversations open from a shared system prompt.
        const int64_t n = slot.conversation;
        op.prefix = (n * 2) % 5 < 2 ? static_cast<int>(n % kPrefixes) : -1;
      }
      op.conversation = slot.conversation;
      op.prompt = tokens(prompt_len);
      slot.tokens += prompt_len + op.max_new_tokens;
      plan.ops.push_back(std::move(op));
    }
  }
  return plan;
}

StatefulServerConfig ServerConfig(int64_t gpu_blocks, int64_t cpu_blocks) {
  StatefulServerConfig config;
  config.model = NumericChatModel();
  config.block_size = kBlockSize;
  config.num_gpu_blocks = gpu_blocks;
  config.num_cpu_blocks = cpu_blocks;
  config.weight_seed = 1234;
  return config;
}

struct Server {
  std::unique_ptr<StatefulLlmServer> server;
  std::vector<int64_t> prefix_ids;
};

Server MakeServer(const Plan& plan, int64_t gpu_blocks, int64_t cpu_blocks) {
  Server s;
  s.server = std::make_unique<StatefulLlmServer>(ServerConfig(gpu_blocks, cpu_blocks));
  for (const std::vector<int32_t>& prefix : plan.prefixes) {
    auto id = s.server->RegisterSharedPrefix(prefix);
    PENSIEVE_CHECK(id.ok()) << id.status();
    s.prefix_ids.push_back(*id);
  }
  return s;
}

// Per-turn record of one client loop.
struct Turn {
  bool ok = false;
  std::vector<int32_t> tokens;
  // Residency of the conversation's history right before the turn.
  int64_t gpu_tokens = 0;
  int64_t cpu_tokens = 0;      // CPU-only: swapped in by this turn
  int64_t dropped_tokens = 0;  // recomputed by this turn
};

// Runs every planned op in order: one pass.
std::vector<Turn> RunLoop(const Plan& plan, Server* s, SpanRecorder* spans) {
  std::vector<Turn> turns;
  std::set<int64_t> broken;  // conversations whose turn failed
  for (int64_t i = 0; i < static_cast<int64_t>(plan.ops.size()); ++i) {
    const Op& op = plan.ops[static_cast<size_t>(i)];
    StatefulLlmServer& server = *s->server;
    if (op.end_conversation >= 0) {
      ScopedSpan span(spans, "core.EndConversation", -1, op.end_conversation);
      server.EndConversation(op.end_conversation);
    }
    Turn turn;
    if (op.new_conversation && op.prefix >= 0) {
      ScopedSpan span(spans, "core.StartConversationWithPrefix", -1, op.conversation);
      turn.ok = server.StartConversationWithPrefix(op.conversation, s->prefix_ids[op.prefix]).ok();
    } else {
      turn.ok = true;
    }
    if (const pensieve::ContextState* c = server.cache().Find(op.conversation)) {
      turn.gpu_tokens = c->TokensOnGpu();
      turn.cpu_tokens = c->TokensCpuOnly();
      turn.dropped_tokens = c->TokensDropped();
    }
    if (turn.ok && broken.count(op.conversation) == 0) {
      ScopedSpan span(spans, "core.Chat", -1, i);
      auto result = server.Chat(op.conversation, op.prompt, op.max_new_tokens);
      turn.ok = result.ok();
      if (turn.ok) {
        turn.tokens = std::move(result).value();
      }
    } else {
      turn.ok = false;
    }
    if (!turn.ok) {
      broken.insert(op.conversation);
    }
    turns.push_back(std::move(turn));
  }
  return turns;
}

struct Residency {
  int64_t gpu = 0, cpu = 0, dropped = 0;
};

Residency SumResidency(const std::vector<Turn>& turns) {
  Residency r;
  for (const Turn& t : turns) {
    r.gpu += t.gpu_tokens;
    r.cpu += t.cpu_tokens;
    r.dropped += t.dropped_tokens;
  }
  return r;
}

// Failed turns: non-OK Chat, or tokens that differ from `reference`.
int64_t CountFailures(const std::vector<Turn>& turns, const std::vector<Turn>& reference) {
  int64_t failed = 0;
  for (size_t i = 0; i < turns.size(); ++i) {
    const Turn& t = turns[i];
    if (!t.ok || i >= reference.size() || !reference[i].ok || t.tokens != reference[i].tokens) {
      ++failed;
    }
  }
  return failed;
}

}  // namespace

pensieve::ModelConfig NumericChatModel() {
  pensieve::ModelConfig c;
  c.name = "perfbench-llama-512";
  c.num_layers = 2;
  c.hidden_size = 512;
  c.num_heads = 8;
  c.num_kv_heads = 2;
  c.head_dim = 64;
  c.ffn_hidden = 1408;
  c.vocab_size = 2048;
  c.max_context = 2048;
  c.activation = pensieve::Activation::kSilu;
  c.norm = pensieve::NormKind::kRmsNorm;
  c.pos_embedding = pensieve::PositionEmbedding::kRotary;
  c.gated_ffn = true;
  c.qkv_bias = false;
  c.num_gpus = 1;
  c.bytes_per_value = 4;
  return c;
}

ReplayShapes NumericChatShapes() {
  ReplayShapes shapes;
  shapes.prefill_tokens = (kLongPromptMin + kLongPromptMax) / 2;
  shapes.decode_context = kMaxConversationTokens / 2;
  shapes.block_size = kBlockSize;
  return shapes;
}

double TimeEvictionProfile(SpanRecorder* spans) {
  // StatefulLlmServer's constructor profiles max(4 blocks, 128) tokens.
  const auto start = SteadyClock::now();
  {
    ScopedSpan span(spans, "eviction.ProfileFromKernels");
    pensieve::ChunkCostEstimator::ProfileFromKernels(
        NumericChatModel(), kBlockSize, std::max<int64_t>(4 * kBlockSize, 128));
  }
  return SecondsSince(start);
}

struct NumericChat::State {
  Plan plan;
  Server server;
};

NumericChat::NumericChat(uint64_t seed, SpanRecorder* spans) : state_(std::make_unique<State>()) {
  state_->plan = MakePlan(seed, static_cast<int32_t>(NumericChatModel().vocab_size));
  ScopedSpan span(spans, "core.StatefulLlmServer");
  state_->server = MakeServer(state_->plan, kGpuBlocks, kCpuBlocks);
}

NumericChat::~NumericChat() = default;

void NumericChat::Run(SpanRecorder* spans, RunResult* result) {
  const Plan& plan = state_->plan;
  const std::vector<Turn> pass = RunLoop(plan, &state_->server, spans);
  state_->server = Server{};
  Server reference_server = MakeServer(plan, kReplayGpuBlocks, kReplayCpuBlocks);
  const std::vector<Turn> reference = RunLoop(plan, &reference_server, nullptr);
  reference_server = Server{};

  const int64_t failed_turns = CountFailures(pass, reference);
  result->attempted += static_cast<int64_t>(pass.size());
  result->failed += failed_turns;
  if (failed_turns > 0) {
    result->correct = false;
    result->notes.push_back(std::to_string(failed_turns) +
                            " numeric turns failed or differ from the pressure-free replay");
  }
  // Eviction is priced from wall-clock kernel timings, so these counts may
  // drift between runs of the same seed.
  const Residency r = SumResidency(pass);
  result->notes.push_back("numeric pass: " + std::to_string(pass.size()) + " turns, " +
                          std::to_string(r.cpu) + " swapped-in tokens, " +
                          std::to_string(r.dropped) + " recomputed tokens");
  if (spans == nullptr) {
    return;
  }
  int64_t failed_calls = 0;
  for (const Turn& t : pass) {
    failed_calls += t.ok ? 0 : 1;
  }
  result->Add("core.chat_calls", static_cast<double>(pass.size()), "count");
  result->Add("core.chat_failed", static_cast<double>(failed_calls), "count");
  result->Add("kvcache.numeric_gpu_tokens", static_cast<double>(r.gpu), "tokens");
  result->Add("kvcache.numeric_cpu_tokens", static_cast<double>(r.cpu), "tokens");
  result->Add("kvcache.numeric_dropped_tokens", static_cast<double>(r.dropped), "tokens");
  AddNumericLayerReplays(NumericChatModel(), NumericChatShapes(), spans, result);
}

}  // namespace perfbench
