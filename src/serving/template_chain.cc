#include "src/serving/template_chain.h"

#include "src/common/hash.h"

namespace pensieve {

std::vector<uint64_t> TemplateChains::Get(int32_t template_id, int64_t num_blocks) {
  std::vector<uint64_t>& chain = chains_[template_id];
  uint64_t h = chain.empty() ? kFnv1a64OffsetBasis : chain.back();
  int64_t pos = static_cast<int64_t>(chain.size()) * block_size_;
  while (static_cast<int64_t>(chain.size()) < num_blocks) {
    for (int64_t i = 0; i < block_size_; ++i, ++pos) {
      const uint64_t tok = TemplatePrefixMix(template_id, pos);
      h = Fnv1a64(&tok, sizeof(tok), h);
    }
    chain.push_back(h);
  }
  return std::vector<uint64_t>(chain.begin(), chain.begin() + num_blocks);
}

}  // namespace pensieve
