// Multi-turn conversation workload synthesis.
//
// The paper's datasets (ShareGPT, UltraChat) are characterized by the Table
// 2 statistics: conversations per dataset, mean turns per conversation, and
// mean request input/output token lengths. We synthesize conversations whose
// distributions match those statistics: turn counts are geometric (at least
// one turn), lengths are log-normal (heavily right-skewed, like real chat
// data), and conversations exceeding the 16,384-token context cap are
// truncated — the paper likewise dropped the 0.57% of ShareGPT conversations
// exceeding the cap.

#ifndef PENSIEVE_SRC_WORKLOAD_DATASET_H_
#define PENSIEVE_SRC_WORKLOAD_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace pensieve {

struct DatasetProfile {
  std::string name;
  double mean_turns = 1.0;
  double mean_input_len = 1.0;
  // Log-normal shape: stddev as a multiple of the mean.
  double input_len_cv = 1.5;  // coefficient of variation
  double mean_output_len = 1.0;
  double output_len_cv = 0.9;
  int64_t max_context = 16384;
  int64_t min_len = 1;
};

// ShareGPT (Table 2): 5.56 turns, input 37.77, output 204.58.
DatasetProfile ShareGptProfile();
// UltraChat (Table 2): 3.86 turns, input 51.78, output 257.81.
DatasetProfile UltraChatProfile();
// Looks up a profile by its name ("sharegpt" or "ultrachat"); false if none.
bool DatasetProfileByName(const std::string& name, DatasetProfile* profile);

struct TurnSpec {
  int64_t input_len = 0;
  int64_t output_len = 0;
};

struct ConversationSpec {
  int64_t conversation_id = 0;
  // Shared-prefix template: when >= 0, the conversation opens with
  // `template_prefix_len` tokens of template `template_id`'s deterministic
  // token stream (TemplatePrefixToken), prepended to the first turn's prompt
  // (turns[0].input_len includes them). Conversations sharing a template id
  // share that prefix token-for-token.
  int32_t template_id = -1;
  int64_t template_prefix_len = 0;
  std::vector<TurnSpec> turns;

  // Total raw tokens (inputs + outputs) accumulated before turn t starts.
  int64_t HistoryLenBeforeTurn(int64_t t) const;
  // Total tokens if the whole conversation runs.
  int64_t TotalTokens() const;
};

class ConversationGenerator {
 public:
  ConversationGenerator(DatasetProfile profile, uint64_t seed);

  ConversationSpec Next();

  const DatasetProfile& profile() const { return profile_; }

 private:
  DatasetProfile profile_;
  Rng rng_;
  int64_t next_id_ = 0;
};

// Deterministic synthetic token id for (conversation, absolute position):
// plays the role of the persistent raw-text history store — any component
// can rematerialize a conversation's raw tokens at any time, which is how
// dropped-context recomputation fetches its inputs (paper §4.3.4).
int32_t SyntheticToken(int64_t conversation_id, int64_t position, int32_t vocab_size);

// Deterministic token id for position `position` of shared-prefix template
// `template_id`: identical across every conversation carrying that template,
// and salted differently from SyntheticToken so templates never collide with
// conversation bodies.
int32_t TemplatePrefixToken(int32_t template_id, int64_t position, int32_t vocab_size);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_WORKLOAD_DATASET_H_
