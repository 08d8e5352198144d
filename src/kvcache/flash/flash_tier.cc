#include "src/kvcache/flash/flash_tier.h"

#include <algorithm>

#include "src/common/logging.h"

namespace pensieve {

namespace {
constexpr int kChunkBits = 20;
constexpr uint64_t kChunkMask = (uint64_t{1} << kChunkBits) - 1;

SegmentLogConfig MakeLogConfig(const FlashTierConfig& config) {
  // Checked here, not only by SegmentLog: the segment count divides by it.
  PENSIEVE_CHECK_GT(config.segment_blocks, 0);
  SegmentLogConfig log;
  log.segment_blocks = config.segment_blocks;
  // Physical capacity = logical capacity rounded up to whole segments, plus
  // two spare segments of over-provisioning so GC always has headroom.
  const int64_t logical_segments =
      (config.capacity_blocks + config.segment_blocks - 1) / config.segment_blocks;
  log.num_segments = logical_segments + 2;
  return log;
}
}  // namespace

FlashTier::FlashTier(const FlashTierConfig& config)
    : config_(config), log_(MakeLogConfig(config)) {
  PENSIEVE_CHECK_GT(config_.capacity_blocks, 0);
  if (config_.numeric) {
    pool_ = std::make_unique<KvPool>(log_.capacity_blocks(), config_.block_size,
                                     config_.num_layers, config_.num_kv_heads,
                                     config_.head_dim);
  }
}

uint64_t FlashTier::MakeKey(int64_t conversation_id, int64_t chunk_index) {
  PENSIEVE_CHECK_GE(conversation_id, 0);
  PENSIEVE_CHECK_GE(chunk_index, 0);
  PENSIEVE_CHECK_LT(chunk_index, int64_t{1} << kChunkBits);
  return (static_cast<uint64_t>(conversation_id) << kChunkBits) |
         static_cast<uint64_t>(chunk_index);
}

int64_t FlashTier::KeyConversation(uint64_t key) {
  return static_cast<int64_t>(key >> kChunkBits);
}

int64_t FlashTier::KeyChunk(uint64_t key) {
  return static_cast<int64_t>(key & kChunkMask);
}

bool FlashTier::Insert(uint64_t key, const EvictablePredicate& evictable,
                       std::vector<uint64_t>* evicted) {
  PENSIEVE_CHECK(!Contains(key)) << "flash insert of resident key";
  // Pinning cannot change while victims are taken, so one oldest-first scan
  // serves every eviction this admission needs.
  auto victim = order_.begin();
  while (resident_keys() >= config_.capacity_blocks) {
    victim = std::find_if(victim, order_.end(), evictable);
    if (victim == order_.end()) {
      return false;
    }
    const uint64_t evicted_key = *victim++;
    evicted->push_back(evicted_key);
    Erase(evicted_key);
  }
  const auto relocate = [this](uint64_t k, FlashBlockId from, FlashBlockId to) {
    OnRelocate(k, from, to);
  };
  std::optional<FlashBlockId> block = log_.Append(key, relocate);
  // The algorithm keeps live keys <= logical capacity and the log is
  // over-provisioned past it, so GC can always reclaim space.
  PENSIEVE_CHECK(block.has_value()) << "flash log full despite over-provisioning";
  entries_[key] = Entry{*block, order_.insert(order_.end(), key)};
  return true;
}

bool FlashTier::Contains(uint64_t key) const { return entries_.count(key) > 0; }

void FlashTier::Erase(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return;
  }
  log_.MarkDead(it->second.block);
  order_.erase(it->second.position);
  entries_.erase(it);
}

FlashBlockId FlashTier::BlockOf(uint64_t key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? kInvalidFlashBlock : it->second.block;
}

void FlashTier::OnRelocate(uint64_t key, FlashBlockId from, FlashBlockId to) {
  auto it = entries_.find(key);
  PENSIEVE_CHECK(it != entries_.end());
  PENSIEVE_CHECK_EQ(it->second.block, from);
  it->second.block = to;
  if (pool_ != nullptr && from != to) {
    KvPool::CopyBlock(*pool_, from, *pool_, to);
  }
}

}  // namespace pensieve
