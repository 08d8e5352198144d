// Basic block/chunk vocabulary shared by the KV cache, kernels and scheduler.
//
// Pensieve manages the KV cache as fixed-size blocks ("chunks" in the paper,
// 32 tokens by default). A conversation's cached context is an ordered list
// of chunks, each of which lives on the GPU, on the CPU, on both (a clean
// GPU copy whose CPU backup already exists, the paper's lazy-reclamation
// state), or has been dropped and must be recomputed.

#ifndef PENSIEVE_SRC_KVCACHE_BLOCK_H_
#define PENSIEVE_SRC_KVCACHE_BLOCK_H_

#include <cstddef>
#include <cstdint>

namespace pensieve {

using BlockId = int32_t;
inline constexpr BlockId kInvalidBlock = -1;

// Default chunk size; the paper reports 32 tokens works well (§4.3.1).
inline constexpr int64_t kDefaultBlockSize = 32;

enum class ChunkLocation : uint8_t {
  kGpu,        // resident only in GPU memory
  kGpuAndCpu,  // resident in GPU memory with a clean CPU copy (swap-out done,
               // GPU slot reclaimable for free)
  kCpu,        // resident only in CPU memory
  kSsd,        // resident only in the flash tier (demoted under CPU pressure)
  kDropped,    // evicted everywhere; recompute from raw tokens when needed
};
inline constexpr size_t kNumChunkLocations = 5;

const char* ChunkLocationName(ChunkLocation loc);

// Synthetic checksum for simulated-mode chunks (no real bytes to hash):
// a deterministic mix of the chunk's identity, so a re-created CPU copy of
// the same chunk gets the same tag and corruption is modeled by the
// cpu_corrupt flag rather than a value mismatch.
uint32_t SimChunkChecksum(int64_t conversation_id, int64_t chunk_index,
                          int64_t num_tokens);

// One cached chunk of a conversation's context.
struct Chunk {
  ChunkLocation location = ChunkLocation::kDropped;
  BlockId gpu_block = kInvalidBlock;
  BlockId cpu_block = kInvalidBlock;
  // Number of KV tokens stored (== block_size except possibly the last
  // chunk of a conversation).
  int64_t num_tokens = 0;
  // Checksum of the CPU-tier copy, recorded when the copy is created
  // (swap-out / migration arrival) and verified before the copy is trusted
  // again (swap-in). Numeric mode hashes the block's floats; simulated mode
  // uses a synthetic per-chunk tag. Zero while no CPU copy exists.
  uint32_t cpu_checksum = 0;
  // Set when fault injection corrupted the CPU copy in flight; the next
  // checksum verification fails and the chunk degrades to recomputation.
  bool cpu_corrupt = false;
  // Same pair for the flash-tier copy (kSsd chunks): recorded at demotion,
  // verified before the copy is promoted back to the CPU tier. The flash
  // block id itself lives inside FlashTier (GC relocates blocks without
  // touching chunk bookkeeping).
  uint32_t ssd_checksum = 0;
  bool ssd_corrupt = false;

  bool OnGpu() const {
    return location == ChunkLocation::kGpu || location == ChunkLocation::kGpuAndCpu;
  }
  bool HasCpuCopy() const {
    return location == ChunkLocation::kGpuAndCpu || location == ChunkLocation::kCpu;
  }
  bool OnSsd() const { return location == ChunkLocation::kSsd; }
  bool Dropped() const { return location == ChunkLocation::kDropped; }
};

// What an eviction policy scores about one chunk (src/eviction/policy.h).
// The cache keeps these ready per holder conversation (DESIGN.md §15).
struct ChunkCandidate {
  int64_t conversation_id = 0;
  int64_t chunk_index = 0;
  // Context length of the chunk's last token (tokens it attends to).
  int64_t context_len = 0;
  // When the owning conversation was last active (virtual seconds).
  double last_active = 0.0;
  // The chunk is a view over a GPU block other conversations also hold.
  // Detaching it loses nothing another reader hasn't already paid for — a
  // later restore is a trie re-attach, not a recompute — so cost-aware
  // policies treat it as the cheapest possible victim.
  bool shared = false;

  bool operator==(const ChunkCandidate&) const = default;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_KVCACHE_BLOCK_H_
