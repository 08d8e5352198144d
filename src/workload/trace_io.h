// Conversation-trace import.
//
// The paper evaluates on real datasets (ShareGPT, UltraChat). Users who hold
// such data can tokenize it offline into a simple CSV of per-turn lengths
// and replay it here (pensieve_sim --trace_csv) instead of the statistical
// generator.
//
// Format (header required):
//   conversation_id,turn,input_len,output_len
// Turns of a conversation must appear in order; conversations may interleave.

#ifndef PENSIEVE_SRC_WORKLOAD_TRACE_IO_H_
#define PENSIEVE_SRC_WORKLOAD_TRACE_IO_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/workload/dataset.h"

namespace pensieve {

StatusOr<std::vector<ConversationSpec>> LoadConversationsCsv(const std::string& path);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_WORKLOAD_TRACE_IO_H_
