// Content-hash chains of shared-prefix templates, the keys of the
// prefix-dedup trie (DESIGN.md §11).

#ifndef PENSIEVE_SRC_SERVING_TEMPLATE_CHAIN_H_
#define PENSIEVE_SRC_SERVING_TEMPLATE_CHAIN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace pensieve {

// Cumulative FNV-1a chain over a template's raw token stream, one hash per
// full block: chain[b] covers template tokens [0, (b + 1) * block_size). It
// is a pure function of (template id, block count), so the publisher and
// every later reader derive identical trie keys without materializing each
// other's blocks — content identity by construction, since the template
// token stream itself is the deterministic function TemplatePrefixMix.
//
// chain[b] depends only on blocks <= b, so this keeps the longest chain
// computed so far per template id and hands out prefixes of it. Not
// thread-safe: each engine owns one.
class TemplateChains {
 public:
  explicit TemplateChains(int64_t block_size) : block_size_(block_size) {}

  // The first `num_blocks` hashes of the template's chain.
  std::vector<uint64_t> Get(int32_t template_id, int64_t num_blocks);

 private:
  int64_t block_size_;
  std::unordered_map<int32_t, std::vector<uint64_t>> chains_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SERVING_TEMPLATE_CHAIN_H_
