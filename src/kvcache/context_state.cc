#include "src/kvcache/context_state.h"

#include <algorithm>

#include "src/common/logging.h"

namespace pensieve {

namespace {

bool DroppedOrSsd(const Chunk& c) { return c.Dropped() || c.OnSsd(); }

}  // namespace

void ContextState::SetLocation(int64_t i, ChunkLocation location) {
  PENSIEVE_CHECK(i >= 0 && i < num_chunks());
  MarkStale();
  --count_at_[static_cast<size_t>(chunk(i).location)];
  ++count_at_[static_cast<size_t>(location)];
  chunks_[static_cast<size_t>(i)].location = location;
  int64_t& hint = first_at_hint_[static_cast<size_t>(location)];
  hint = std::min(hint, i);
  // A frontier moves back when a chunk inside its prefix is restored, and
  // forward (over any already-evicted chunks behind it) when the chunk at
  // the frontier itself is evicted.
  if (i < leading_dropped_ && location != ChunkLocation::kDropped) {
    leading_dropped_ = i;
  } else if (i == leading_dropped_) {
    while (leading_dropped_ < num_chunks() && chunk(leading_dropped_).Dropped()) {
      ++leading_dropped_;
    }
  }
  if (i < leading_dropped_or_ssd_ && !DroppedOrSsd(chunk(i))) {
    leading_dropped_or_ssd_ = i;
  } else if (i == leading_dropped_or_ssd_) {
    while (leading_dropped_or_ssd_ < num_chunks() &&
           DroppedOrSsd(chunk(leading_dropped_or_ssd_))) {
      ++leading_dropped_or_ssd_;
    }
  }
}

int64_t ContextState::NextChunkAt(ChunkLocation location, int64_t after) const {
  int64_t i = std::max(after + 1, first_at_hint_[static_cast<size_t>(location)]);
  while (i < num_chunks() && chunk(i).location != location) {
    ++i;
  }
  return i;
}

void ContextState::CheckFrontiers() const {
  int64_t dropped = 0;
  while (dropped < num_chunks() && chunk(dropped).Dropped()) {
    ++dropped;
  }
  PENSIEVE_CHECK_EQ(leading_dropped_, dropped);
  int64_t dropped_or_ssd = 0;
  while (dropped_or_ssd < num_chunks() && DroppedOrSsd(chunk(dropped_or_ssd))) {
    ++dropped_or_ssd;
  }
  PENSIEVE_CHECK_EQ(leading_dropped_or_ssd_, dropped_or_ssd);
  std::array<int64_t, kNumChunkLocations> counts{};
  for (const Chunk& c : chunks_) {
    ++counts[static_cast<size_t>(c.location)];
  }
  PENSIEVE_CHECK(counts == count_at_) << "per-location chunk counts drifted";
  for (size_t loc = 0; loc < kNumChunkLocations; ++loc) {
    for (int64_t i = 0; i < std::min(first_at_hint_[loc], num_chunks()); ++i) {
      PENSIEVE_CHECK(static_cast<size_t>(chunk(i).location) != loc)
          << "chunk " << i << " is " << ChunkLocationName(chunk(i).location)
          << " below its first-chunk hint " << first_at_hint_[loc];
    }
  }
}

int64_t ContextState::TokensOnGpu() const {
  int64_t t = 0;
  for (const Chunk& c : chunks_) {
    if (c.OnGpu()) {
      t += c.num_tokens;
    }
  }
  return t;
}

int64_t ContextState::TokensCpuOnly() const {
  int64_t t = 0;
  for (const Chunk& c : chunks_) {
    if (c.location == ChunkLocation::kCpu) {
      t += c.num_tokens;
    }
  }
  return t;
}

int64_t ContextState::TokensDropped() const {
  int64_t t = 0;
  for (const Chunk& c : chunks_) {
    if (c.Dropped()) {
      t += c.num_tokens;
    }
  }
  return t;
}

std::vector<int64_t> ContextState::CpuOnlyChunks() const {
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < num_chunks(); ++i) {
    if (chunk(i).location == ChunkLocation::kCpu) {
      idx.push_back(i);
    }
  }
  return idx;
}

std::vector<int64_t> ContextState::SsdChunks() const {
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < num_chunks(); ++i) {
    if (chunk(i).OnSsd()) {
      idx.push_back(i);
    }
  }
  return idx;
}

bool ContextState::FullyOnGpu() const {
  for (const Chunk& c : chunks_) {
    if (!c.OnGpu()) {
      return false;
    }
  }
  return true;
}

void ContextState::AppendTokens(int64_t n, const std::vector<BlockId>& new_gpu_blocks,
                                std::vector<SlotRef>* slots) {
  PENSIEVE_CHECK_EQ(static_cast<int64_t>(new_gpu_blocks.size()), NumNewChunksForAppend(n));
  if (!chunks_.empty() && chunks_.back().num_tokens < block_size_) {
    // The partial tail chunk receives tokens first; it must be GPU-resident
    // and must not carry a (now stale) CPU copy — the cache invalidates the
    // copy before calling us.
    PENSIEVE_CHECK(n == 0 || chunks_.back().location == ChunkLocation::kGpu)
        << "appending into a tail chunk in state "
        << ChunkLocationName(chunks_.back().location);
  }
  size_t next_new_block = 0;
  int64_t remaining = n;
  while (remaining > 0) {
    if (chunks_.empty() || chunks_.back().num_tokens == block_size_) {
      Chunk c;
      c.location = ChunkLocation::kGpu;
      c.gpu_block = new_gpu_blocks[next_new_block++];
      c.num_tokens = 0;
      chunks_.push_back(c);
      ++count_at_[static_cast<size_t>(ChunkLocation::kGpu)];
    }
    Chunk& tail = chunks_.back();
    const int64_t take = std::min(remaining, block_size_ - tail.num_tokens);
    if (slots != nullptr) {
      for (int64_t i = 0; i < take; ++i) {
        slots->push_back(SlotRef{num_chunks() - 1, tail.gpu_block, tail.num_tokens + i});
      }
    }
    tail.num_tokens += take;
    kv_len_ += take;
    remaining -= take;
  }
  PENSIEVE_CHECK_EQ(next_new_block, new_gpu_blocks.size());
  if (n > 0) {
    MarkStale();
  }
}

void ContextState::AttachSharedChunk(BlockId block, int64_t tokens) {
  PENSIEVE_CHECK_GT(tokens, 0);
  PENSIEVE_CHECK_LE(tokens, block_size_);
  PENSIEVE_CHECK_GE(block, 0);
  PENSIEVE_CHECK(chunks_.empty() || chunks_.back().num_tokens == block_size_)
      << "shared chunk attached behind a partial tail";
  Chunk c;
  c.location = ChunkLocation::kGpu;
  c.gpu_block = block;
  c.num_tokens = tokens;
  chunks_.push_back(c);
  ++count_at_[static_cast<size_t>(ChunkLocation::kGpu)];
  kv_len_ += tokens;
  MarkStale();
}

void ContextState::InitializeImported(int64_t kv_len) {
  PENSIEVE_CHECK(chunks_.empty());
  PENSIEVE_CHECK_EQ(kv_len_, 0);
  PENSIEVE_CHECK_GE(kv_len, 0);
  int64_t remaining = kv_len;
  while (remaining > 0) {
    Chunk c;
    c.location = ChunkLocation::kDropped;
    c.num_tokens = std::min(remaining, block_size_);
    chunks_.push_back(c);
    remaining -= c.num_tokens;
  }
  kv_len_ = kv_len;
  count_at_[static_cast<size_t>(ChunkLocation::kDropped)] = num_chunks();
  leading_dropped_ = num_chunks();
  leading_dropped_or_ssd_ = num_chunks();
  MarkStale();
}

}  // namespace pensieve
