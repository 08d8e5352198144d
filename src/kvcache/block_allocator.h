// Free-list allocator for fixed-size KV cache blocks in one memory tier.
//
// Blocks are reference counted so several conversation views can share one
// physical block (PagedAttention-style prefix dedup). Allocate() hands out a
// block with refcount 1, Share() adds a reader, and Free() drops one
// reference — the block returns to the free list only when the last
// reference is released. For the exclusive-ownership lifecycle
// (Allocate → Free with no Share in between) the free-list order is
// identical to the pre-refcount allocator, which keeps dedup-off runs
// bit-identical.

#ifndef PENSIEVE_SRC_KVCACHE_BLOCK_ALLOCATOR_H_
#define PENSIEVE_SRC_KVCACHE_BLOCK_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/kvcache/block.h"

namespace pensieve {

class BlockAllocator {
 public:
  explicit BlockAllocator(int64_t num_blocks);

  // Returns a free block with refcount 1, or nullopt if the tier is
  // exhausted.
  std::optional<BlockId> Allocate();

  // Adds one reference to an allocated block.
  void Share(BlockId block);

  // Releases one reference. Returns true when this was the last reference
  // and the block went back to the free list.
  bool Free(BlockId block);

  int64_t num_free() const { return static_cast<int64_t>(free_list_.size()); }
  int64_t num_allocated() const { return capacity_ - num_free(); }
  int64_t capacity() const { return capacity_; }
  double FreeFraction() const {
    return capacity_ == 0 ? 0.0
                          : static_cast<double>(num_free()) / static_cast<double>(capacity_);
  }
  bool IsAllocated(BlockId block) const;
  int32_t refcount(BlockId block) const;

  // Reference-balance accounting: every Allocate/Share is an acquire and
  // every Free a release, so total_acquires == total_releases + live_refs
  // holds at all times and live_refs == 0 at a leak-free shutdown.
  int64_t total_acquires() const { return total_acquires_; }
  int64_t total_releases() const { return total_releases_; }
  int64_t live_refs() const { return total_acquires_ - total_releases_; }

  // Physical blocks currently held by more than one reference.
  int64_t num_shared() const { return num_shared_; }
  // Times any block went from one reference to two or from two to one,
  // i.e. changes of num_shared(); monotone.
  int64_t share_crossings() const { return share_crossings_; }
  // High-water mark of physically allocated blocks over the allocator's
  // lifetime (capacity actually consumed).
  int64_t peak_allocated() const { return peak_allocated_; }

  // Shutdown leak check: every block returned and every reference
  // balanced. Dies with a diagnostic if blocks leaked.
  void CheckAllFree() const;

 private:
  int64_t capacity_;
  std::vector<BlockId> free_list_;
  std::vector<int32_t> refcount_;
  int64_t total_acquires_ = 0;
  int64_t total_releases_ = 0;
  int64_t num_shared_ = 0;
  int64_t share_crossings_ = 0;
  int64_t peak_allocated_ = 0;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_KVCACHE_BLOCK_ALLOCATOR_H_
