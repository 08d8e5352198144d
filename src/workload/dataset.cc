#include "src/workload/dataset.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace pensieve {

DatasetProfile ShareGptProfile() {
  DatasetProfile p;
  p.name = "sharegpt";
  p.mean_turns = 5.56;
  p.mean_input_len = 37.77;
  p.input_len_cv = 1.5;
  p.mean_output_len = 204.58;
  p.output_len_cv = 0.9;
  return p;
}

DatasetProfile UltraChatProfile() {
  DatasetProfile p;
  p.name = "ultrachat";
  p.mean_turns = 3.86;
  p.mean_input_len = 51.78;
  p.input_len_cv = 1.2;
  p.mean_output_len = 257.81;
  p.output_len_cv = 0.7;
  return p;
}

bool DatasetProfileByName(const std::string& name, DatasetProfile* profile) {
  if (name == "sharegpt") {
    *profile = ShareGptProfile();
  } else if (name == "ultrachat") {
    *profile = UltraChatProfile();
  } else {
    return false;
  }
  return true;
}

int64_t ConversationSpec::HistoryLenBeforeTurn(int64_t t) const {
  PENSIEVE_CHECK_LE(t, static_cast<int64_t>(turns.size()));
  int64_t total = 0;
  for (int64_t i = 0; i < t; ++i) {
    total += turns[static_cast<size_t>(i)].input_len +
             turns[static_cast<size_t>(i)].output_len;
  }
  return total;
}

int64_t ConversationSpec::TotalTokens() const {
  return HistoryLenBeforeTurn(static_cast<int64_t>(turns.size()));
}

ConversationGenerator::ConversationGenerator(DatasetProfile profile, uint64_t seed)
    : profile_(std::move(profile)), rng_(seed) {}

ConversationSpec ConversationGenerator::Next() {
  ConversationSpec spec;
  spec.conversation_id = next_id_++;
  const int64_t num_turns = rng_.GeometricAtLeastOne(1.0 / profile_.mean_turns);
  int64_t context = 0;
  for (int64_t t = 0; t < num_turns; ++t) {
    TurnSpec turn;
    turn.input_len = std::max<int64_t>(
        profile_.min_len,
        static_cast<int64_t>(std::llround(rng_.LogNormalWithMean(
            profile_.mean_input_len, profile_.mean_input_len * profile_.input_len_cv))));
    turn.output_len = std::max<int64_t>(
        profile_.min_len,
        static_cast<int64_t>(std::llround(rng_.LogNormalWithMean(
            profile_.mean_output_len,
            profile_.mean_output_len * profile_.output_len_cv))));
    // Context cap: truncate the conversation instead of exceeding the
    // maximum context size.
    if (context + turn.input_len + turn.output_len > profile_.max_context) {
      break;
    }
    context += turn.input_len + turn.output_len;
    spec.turns.push_back(turn);
  }
  if (spec.turns.empty()) {
    // An oversized first turn: clamp it so that every conversation has at
    // least one feasible turn.
    TurnSpec turn;
    turn.input_len = std::min<int64_t>(static_cast<int64_t>(profile_.mean_input_len) + 1,
                                       profile_.max_context / 2);
    turn.output_len = std::min<int64_t>(
        static_cast<int64_t>(profile_.mean_output_len) + 1, profile_.max_context / 2);
    spec.turns.push_back(turn);
  }
  return spec;
}

int32_t SyntheticToken(int64_t conversation_id, int64_t position, int32_t vocab_size) {
  PENSIEVE_CHECK_GT(vocab_size, 0);
  // SplitMix64-style mix of (conversation, position) for a deterministic,
  // well-spread token id.
  uint64_t z = static_cast<uint64_t>(conversation_id) * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(position) + 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return static_cast<int32_t>(z % static_cast<uint64_t>(vocab_size));
}

}  // namespace pensieve
