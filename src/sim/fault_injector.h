// Deterministic, seeded fault injection for the simulated KV-transfer links.
//
// Both KV-moving links — the per-replica PCIe link group (swap-out/swap-in,
// src/sim/pcie_link.h) and the inter-replica NIC (migration,
// src/sim/cluster_link.h) — are infallible by construction; this wrapper
// makes them lie. Each transfer draws at most one fault per attempt from a
// per-link profile:
//
//   timeout     nothing crosses the link; the sender burns a detection
//               window, then retries.
//   stall       the transfer completes, but occupies `stall_factor` x its
//               nominal link time (congestion / degraded lanes).
//   partial     a prefix of the bytes consumes bandwidth, then the transfer
//               dies; the whole payload is retransmitted.
//   corruption  all bytes land but the per-block checksum rejects them on
//               arrival (silent bit flip in flight); retransmitted.
//
// Failed attempts retry with exponential backoff up to `max_attempts`; every
// second of fault handling (timeouts, dead partial transfers, backoff) is
// charged through the simulated clock via the wrapped schedule call, so
// fault cost shows up in step durations and latency percentiles, never in
// wall time. When retries exhaust, the caller degrades: the engine treats
// the affected blocks as dropped prefix and recomputes (paper §4.3.4), the
// cluster driver re-homes the conversation without its KV. No fault ever
// drops a request.
//
// Determinism: all randomness flows through one seeded Rng owned by the
// injector (§7 contract), and a profile with all rates zero takes a fast
// path that draws nothing and schedules exactly one attempt — bit-identical
// to the pre-fault-injection code.

#ifndef PENSIEVE_SRC_SIM_FAULT_INJECTOR_H_
#define PENSIEVE_SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>

#include "src/common/rng.h"

namespace pensieve {

class FlagParser;

enum class LinkFaultKind : uint8_t {
  kNone = 0,
  kTimeout,
  kStall,
  kPartial,
  kCorruption,
};

// Per-attempt fault probabilities and shape parameters for one link.
struct LinkFaultProfile {
  double timeout_rate = 0.0;
  double stall_rate = 0.0;
  double partial_rate = 0.0;
  double corruption_rate = 0.0;
  // Seconds a timed-out attempt burns before the sender gives up on it.
  double timeout_seconds = 0.2;
  // A stalled attempt occupies this multiple of its nominal bytes' link time.
  double stall_factor = 4.0;
  // A partial transfer delivers a dead prefix in [min_partial_fraction, 1)
  // of the bytes before failing.
  double min_partial_fraction = 0.25;

  bool Enabled() const {
    return timeout_rate > 0.0 || stall_rate > 0.0 || partial_rate > 0.0 ||
           corruption_rate > 0.0;
  }
};

// Bounded retry with exponential backoff for transient link faults.
struct LinkRetryPolicy {
  int32_t max_attempts = 4;
  double backoff_initial = 0.01;  // seconds before the second attempt
  double backoff_factor = 2.0;
};

// Fault accounting. The identity every run must satisfy (pinned by tests):
//   injected_timeouts + injected_partials + injected_corruptions
//     == recovered_faults + unrecovered_faults
// (stalls deliver — late — and so are never retried or recovered).
struct LinkFaultStats {
  int64_t transfers = 0;          // Transfer() calls
  int64_t faulted_transfers = 0;  // transfers that hit at least one fault
  int64_t injected_timeouts = 0;
  int64_t injected_stalls = 0;
  int64_t injected_partials = 0;
  int64_t injected_corruptions = 0;
  int64_t retries = 0;  // extra attempts after a failed one
  // Failed attempts papered over by a later successful attempt of the same
  // transfer vs. failed attempts of transfers that exhausted their retries.
  int64_t recovered_faults = 0;
  int64_t unrecovered_faults = 0;
  // Transfers that exhausted max_attempts; the caller degraded to recompute.
  int64_t exhausted_transfers = 0;
  double retry_backoff_seconds = 0.0;

  int64_t InjectedFaults() const {
    return injected_timeouts + injected_stalls + injected_partials +
           injected_corruptions;
  }

  LinkFaultStats& operator+=(const LinkFaultStats& other) {
    transfers += other.transfers;
    faulted_transfers += other.faulted_transfers;
    injected_timeouts += other.injected_timeouts;
    injected_stalls += other.injected_stalls;
    injected_partials += other.injected_partials;
    injected_corruptions += other.injected_corruptions;
    retries += other.retries;
    recovered_faults += other.recovered_faults;
    unrecovered_faults += other.unrecovered_faults;
    exhausted_transfers += other.exhausted_transfers;
    retry_backoff_seconds += other.retry_backoff_seconds;
    return *this;
  }
};

struct LinkTransferOutcome {
  // Delivery time when `delivered`, otherwise the time the final attempt
  // was abandoned (link time already burned either way).
  double done = 0.0;
  bool delivered = true;
  int32_t attempts = 1;
  LinkFaultKind last_fault = LinkFaultKind::kNone;
};

class LinkFaultInjector {
 public:
  LinkFaultInjector(uint64_t seed, LinkFaultProfile profile,
                    LinkRetryPolicy retry);

  // Schedules `bytes` on the underlying link: `schedule(start, bytes)`
  // must book the transfer and return its completion time (PcieLink /
  // TpLinkGroup / ClusterInterconnect all fit). May call `schedule` several
  // times (retries, partials); with faults disabled it calls it exactly
  // once with (now, bytes).
  LinkTransferOutcome Transfer(
      double now, double bytes,
      const std::function<double(double start, double bytes)>& schedule);

  bool enabled() const { return profile_.Enabled(); }
  const LinkFaultProfile& profile() const { return profile_; }
  const LinkFaultStats& stats() const { return stats_; }

 private:
  LinkFaultKind Draw();

  LinkFaultProfile profile_;
  LinkRetryPolicy retry_;
  Rng rng_;
  LinkFaultStats stats_;
};

// --- Command-line surface ----------------------------------------------------
// Shared fault configuration for the tools and benches: one profile per
// link kind plus the common retry policy and seed.
struct FaultConfig {
  uint64_t seed = 0;
  LinkRetryPolicy retry;
  LinkFaultProfile pcie;  // swap-out / swap-in transfers
  LinkFaultProfile nic;   // inter-replica KV migration
  LinkFaultProfile ssd;   // flash-tier demote / promote transfers

  bool Enabled() const {
    return pcie.Enabled() || nic.Enabled() || ssd.Enabled();
  }
};

// Registers the --fault-* flags on `flags` / reads them back.
void AddFaultFlags(FlagParser* flags);
FaultConfig FaultConfigFromFlags(const FlagParser& flags);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SIM_FAULT_INJECTOR_H_
