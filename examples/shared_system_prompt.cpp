// Shared system prompt (paper footnote 3): a chatbot deployment prepends
// the same system prompt to every conversation. The first user's turn
// computes the prompt's KV and publishes its whole blocks; every later user
// attaches them as refcounted views at the head of its own context, so the
// prompt costs no extra memory or compute per user.
//
//   ./build/examples/shared_system_prompt

#include <cstdio>
#include <vector>

#include "src/core/pensieve.h"

int main() {
  pensieve::StatefulServerConfig config;
  config.model = pensieve::TinyOptConfig();
  config.block_size = 8;
  config.num_gpu_blocks = 96;
  config.num_cpu_blocks = 96;
  pensieve::StatefulLlmServer server(config);

  // A 48-token "system prompt" (6 chunks, fully shareable).
  std::vector<int32_t> system_prompt;
  for (int i = 0; i < 48; ++i) {
    system_prompt.push_back(pensieve::SyntheticToken(/*conv=*/0, i, 128));
  }
  auto prefix = server.RegisterSharedPrefix(system_prompt);
  if (!prefix.ok()) {
    std::printf("error: %s\n", prefix.status().ToString().c_str());
    return 1;
  }
  const int64_t prefix_blocks = server.SharedPrefixLen(*prefix) / config.block_size;
  std::printf("registered system prompt: %zu tokens, %ld shareable (%ld blocks)\n",
              system_prompt.size(), static_cast<long>(server.SharedPrefixLen(*prefix)),
              static_cast<long>(prefix_blocks));

  // Three users chat in turn: user 1 computes the prompt, users 2 and 3
  // attach the blocks it published.
  for (int64_t user = 1; user <= 3; ++user) {
    (void)server.StartConversationWithPrefix(user, *prefix);
    std::vector<int32_t> prompt;
    for (int i = 0; i < 6; ++i) {
      prompt.push_back(pensieve::SyntheticToken(user, 1000 + i, 128));
    }
    auto reply = server.Chat(user, prompt, 5);
    if (!reply.ok()) {
      std::printf("user %ld error: %s\n", user, reply.status().ToString().c_str());
      return 1;
    }
    std::printf("user %ld reply:", user);
    for (int32_t t : reply.value()) {
      std::printf(" %d", t);
    }
    std::printf("  (KV tokens incl. system prompt: %ld)\n",
                static_cast<long>(server.cache().Find(user)->kv_len()));
  }

  const int64_t total_blocks = server.cache().gpu_allocator().num_allocated();
  std::printf("\nGPU blocks: %ld total; without sharing users 2 and 3 would add %ld "
              "more each for the prompt\n",
              static_cast<long>(total_blocks), static_cast<long>(prefix_blocks));

  for (int64_t user = 1; user <= 3; ++user) {
    server.EndConversation(user);
  }
  (void)server.UnregisterSharedPrefix(*prefix);
  std::printf("all conversations ended, prefix unregistered; blocks in use: %ld\n",
              static_cast<long>(server.cache().gpu_allocator().num_allocated()));
  return 0;
}
