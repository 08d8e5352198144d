// The flash (simulated SSD) tier: segment log + retention queue + an
// optional numeric KV pool, behind one facade.
//
// The tier indexes KV chunks by an opaque 64-bit key packing (conversation,
// chunk index). The key -> flash-block mapping is fully internal: GC
// relocations rewrite it without the upper layers noticing, so Chunk
// bookkeeping never stores flash block ids — a chunk is merely "on SSD"
// (ChunkLocation::kSsd) and the tier resolves the bytes.
//
// Capacity is split in two: the *logical* capacity enforced by retention,
// and the *physical* log capacity, which is over-provisioned by a couple of
// segments so GC always has somewhere to relocate live blocks (real SSDs
// reserve spare area for exactly this reason).
//
// Retention is insertion order. The tier is exclusive (DESIGN.md §10): a
// chunk is read from flash only by promoting it back to the CPU tier, which
// erases its key, so no key is ever hit while resident and recency order
// equals insertion order. Eviction takes the oldest keys the `evictable`
// predicate allows (pinned conversations are skipped); an admission that
// finds no eligible victim fails cleanly and the caller drops the chunk
// instead (recompute later). Fully deterministic: no clocks, no RNG.

#ifndef PENSIEVE_SRC_KVCACHE_FLASH_FLASH_TIER_H_
#define PENSIEVE_SRC_KVCACHE_FLASH_FLASH_TIER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/kvcache/block.h"
#include "src/kvcache/flash/segment_log.h"
#include "src/kvcache/kv_pool.h"

namespace pensieve {

struct FlashTierConfig {
  // Logical capacity (retention budget) in KV blocks.
  int64_t capacity_blocks = 0;
  int64_t segment_blocks = 64;
  // Numeric mode: allocate a real pool with this geometry.
  bool numeric = false;
  int64_t block_size = kDefaultBlockSize;
  int64_t num_layers = 1;
  int64_t num_kv_heads = 1;
  int64_t head_dim = 1;
};

class FlashTier {
 public:
  using EvictablePredicate = std::function<bool(uint64_t)>;

  explicit FlashTier(const FlashTierConfig& config);

  // Key packing: conversation id in the high bits, chunk index in the low
  // 20 bits.
  static uint64_t MakeKey(int64_t conversation_id, int64_t chunk_index);
  static int64_t KeyConversation(uint64_t key);
  static int64_t KeyChunk(uint64_t key);

  int64_t capacity_blocks() const { return config_.capacity_blocks; }
  int64_t live_blocks() const { return log_.live_blocks(); }
  int64_t resident_keys() const { return static_cast<int64_t>(order_.size()); }

  // Admits `key`, evicting the oldest evictable resident keys (appended to
  // *evicted) until it fits; their log blocks are already dead when this
  // returns. Fails (inserting nothing) when no evictable victim can make
  // room; keys evicted before the stall stay evicted.
  bool Insert(uint64_t key, const EvictablePredicate& evictable,
              std::vector<uint64_t>* evicted);
  bool Contains(uint64_t key) const;
  // Removes a key (promotion or drop). Idempotent.
  void Erase(uint64_t key);
  // Current log block of a resident key; kInvalidFlashBlock when absent.
  FlashBlockId BlockOf(uint64_t key) const;

  // Null in simulated mode. Blocks are addressed by BlockOf's FlashBlockId.
  KvPool* pool() { return pool_.get(); }

  const SegmentLog& log() const { return log_; }

 private:
  struct Entry {
    FlashBlockId block;
    std::list<uint64_t>::iterator position;  // in order_
  };

  void OnRelocate(uint64_t key, FlashBlockId from, FlashBlockId to);

  FlashTierConfig config_;
  SegmentLog log_;
  std::unique_ptr<KvPool> pool_;
  std::list<uint64_t> order_;  // resident keys, oldest first
  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_KVCACHE_FLASH_FLASH_TIER_H_
