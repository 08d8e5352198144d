#include "src/kvcache/block_allocator.h"

#include <algorithm>

#include "src/common/logging.h"

namespace pensieve {

BlockAllocator::BlockAllocator(int64_t num_blocks)
    : capacity_(num_blocks), refcount_(static_cast<size_t>(num_blocks), 0) {
  PENSIEVE_CHECK_GE(num_blocks, 0);
  free_list_.reserve(static_cast<size_t>(num_blocks));
  // Hand out low block ids first: keeps numeric-mode pool accesses dense.
  for (BlockId b = static_cast<BlockId>(num_blocks) - 1; b >= 0; --b) {
    free_list_.push_back(b);
  }
}

std::optional<BlockId> BlockAllocator::Allocate() {
  if (free_list_.empty()) {
    return std::nullopt;
  }
  BlockId b = free_list_.back();
  free_list_.pop_back();
  refcount_[static_cast<size_t>(b)] = 1;
  ++total_acquires_;
  peak_allocated_ = std::max(peak_allocated_, num_allocated());
  return b;
}

void BlockAllocator::Share(BlockId block) {
  PENSIEVE_CHECK_GE(block, 0);
  PENSIEVE_CHECK_LT(block, capacity_);
  int32_t& rc = refcount_[static_cast<size_t>(block)];
  PENSIEVE_CHECK_GT(rc, 0) << "share of unallocated block " << block;
  if (++rc == 2) {
    ++num_shared_;
    ++share_crossings_;
  }
  ++total_acquires_;
}

bool BlockAllocator::Free(BlockId block) {
  PENSIEVE_CHECK_GE(block, 0);
  PENSIEVE_CHECK_LT(block, capacity_);
  int32_t& rc = refcount_[static_cast<size_t>(block)];
  PENSIEVE_CHECK_GT(rc, 0) << "double free of block " << block;
  ++total_releases_;
  if (--rc == 1) {
    --num_shared_;
    ++share_crossings_;
  }
  if (rc > 0) {
    return false;
  }
  free_list_.push_back(block);
  return true;
}

bool BlockAllocator::IsAllocated(BlockId block) const {
  PENSIEVE_CHECK_GE(block, 0);
  PENSIEVE_CHECK_LT(block, capacity_);
  return refcount_[static_cast<size_t>(block)] > 0;
}

int32_t BlockAllocator::refcount(BlockId block) const {
  PENSIEVE_CHECK_GE(block, 0);
  PENSIEVE_CHECK_LT(block, capacity_);
  return refcount_[static_cast<size_t>(block)];
}

void BlockAllocator::CheckAllFree() const {
  PENSIEVE_CHECK_EQ(num_allocated(), 0)
      << "block leak: " << num_allocated() << " blocks still allocated at shutdown";
  PENSIEVE_CHECK_EQ(live_refs(), 0)
      << "refcount imbalance: " << total_acquires_ << " acquires vs " << total_releases_
      << " releases";
  PENSIEVE_CHECK_EQ(num_shared_, 0);
}

}  // namespace pensieve
