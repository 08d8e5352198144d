// Table 2: dataset statistics of the synthesized ShareGPT and UltraChat
// workloads — conversations, mean turns, mean request input/output lengths —
// compared against the paper's reported numbers.

#include <cstdio>

#include "bench_serving_common.h"
#include "src/common/flags.h"
#include "src/workload/dataset.h"

namespace pensieve {
namespace {

void PrintDataset(const DatasetProfile& profile, int64_t num_conversations,
                  double paper_turns, double paper_in, double paper_out) {
  ConversationGenerator gen(profile, 2024);
  double turns = 0.0;
  double input = 0.0;
  double output = 0.0;
  int64_t requests = 0;
  int64_t over_cap = 0;
  for (int64_t i = 0; i < num_conversations; ++i) {
    ConversationSpec spec = gen.Next();
    turns += static_cast<double>(spec.turns.size());
    if (spec.TotalTokens() > profile.max_context) {
      ++over_cap;
    }
    for (const TurnSpec& t : spec.turns) {
      input += static_cast<double>(t.input_len);
      output += static_cast<double>(t.output_len);
      ++requests;
    }
  }
  std::printf("%-12s %-12ld %-18.2f (%.2f)   %-16.2f (%.2f)   %-16.2f (%.2f)\n",
              profile.name.c_str(), num_conversations,
              turns / static_cast<double>(num_conversations), paper_turns,
              input / static_cast<double>(requests), paper_in,
              output / static_cast<double>(requests), paper_out);
  (void)over_cap;
}

void RunTable2() {
  std::printf("# Table 2: synthesized dataset statistics (paper values in "
              "parentheses)\n");
  std::printf("%-12s %-12s %-28s %-26s %-26s\n", "dataset", "#convs",
              "mean_turns (paper)", "mean_input (paper)", "mean_output (paper)");
  PrintDataset(ShareGptProfile(), 48159, 5.56, 37.77, 204.58);
  PrintDataset(UltraChatProfile(), 100000, 3.86, 51.78, 257.81);
  std::printf("\n(UltraChat sampled at 100K of the paper's 1.47M conversations "
              "for runtime; statistics are stable.)\n");
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_tab2_datasets: Table 2, dataset statistics");
  pensieve::RunTable2();
  return 0;
}
