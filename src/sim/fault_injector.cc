#include "src/sim/fault_injector.h"

#include <cmath>

#include "src/common/flags.h"
#include "src/common/logging.h"

namespace pensieve {

LinkFaultInjector::LinkFaultInjector(uint64_t seed, LinkFaultProfile profile,
                                     LinkRetryPolicy retry)
    : profile_(profile), retry_(retry), rng_(seed) {
  PENSIEVE_CHECK_GE(retry_.max_attempts, 1);
  PENSIEVE_CHECK_GE(profile_.timeout_rate, 0.0);
  PENSIEVE_CHECK_GE(profile_.stall_rate, 0.0);
  PENSIEVE_CHECK_GE(profile_.partial_rate, 0.0);
  PENSIEVE_CHECK_GE(profile_.corruption_rate, 0.0);
  PENSIEVE_CHECK_LE(profile_.timeout_rate + profile_.stall_rate +
                        profile_.partial_rate + profile_.corruption_rate,
                    1.0);
}

LinkFaultKind LinkFaultInjector::Draw() {
  // One uniform draw per attempt, sliced by cumulative rate thresholds so
  // the per-attempt draw count is fixed (determinism survives profile
  // tweaks within a run).
  const double u = rng_.Uniform(0.0, 1.0);
  double edge = profile_.timeout_rate;
  if (u < edge) {
    return LinkFaultKind::kTimeout;
  }
  edge += profile_.stall_rate;
  if (u < edge) {
    return LinkFaultKind::kStall;
  }
  edge += profile_.partial_rate;
  if (u < edge) {
    return LinkFaultKind::kPartial;
  }
  edge += profile_.corruption_rate;
  if (u < edge) {
    return LinkFaultKind::kCorruption;
  }
  return LinkFaultKind::kNone;
}

LinkTransferOutcome LinkFaultInjector::Transfer(
    double now, double bytes,
    const std::function<double(double start, double bytes)>& schedule) {
  ++stats_.transfers;
  LinkTransferOutcome out;
  if (!profile_.Enabled()) {
    // Zero-rate fast path: no RNG draws, one attempt, identical link state
    // to the pre-fault-injection code.
    out.done = schedule(now, bytes);
    return out;
  }
  double t = now;
  int64_t failed_attempts = 0;
  bool faulted = false;
  for (int32_t attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    out.attempts = attempt;
    const LinkFaultKind kind = Draw();
    switch (kind) {
      case LinkFaultKind::kNone:
        out.done = schedule(t, bytes);
        out.delivered = true;
        out.last_fault = LinkFaultKind::kNone;
        stats_.recovered_faults += failed_attempts;
        stats_.faulted_transfers += faulted ? 1 : 0;
        return out;
      case LinkFaultKind::kStall:
        // Delivered, late: the attempt occupies stall_factor x the nominal
        // link time of its bytes.
        ++stats_.injected_stalls;
        out.done = schedule(t, bytes * profile_.stall_factor);
        out.delivered = true;
        out.last_fault = LinkFaultKind::kStall;
        stats_.recovered_faults += failed_attempts;
        ++stats_.faulted_transfers;
        return out;
      case LinkFaultKind::kTimeout:
        // Nothing crossed the link; only the detection window elapses.
        ++stats_.injected_timeouts;
        t += profile_.timeout_seconds;
        break;
      case LinkFaultKind::kPartial: {
        // A dead prefix of the payload consumed real bandwidth.
        ++stats_.injected_partials;
        const double fraction = rng_.Uniform(profile_.min_partial_fraction, 1.0);
        t = schedule(t, bytes * fraction);
        break;
      }
      case LinkFaultKind::kCorruption:
        // Full payload lands; the receiver's checksum rejects it.
        ++stats_.injected_corruptions;
        t = schedule(t, bytes);
        break;
    }
    faulted = true;
    out.last_fault = kind;
    ++failed_attempts;
    if (attempt < retry_.max_attempts) {
      ++stats_.retries;
      const double backoff =
          retry_.backoff_initial *
          std::pow(retry_.backoff_factor, static_cast<double>(attempt - 1));
      stats_.retry_backoff_seconds += backoff;
      t += backoff;
    }
  }
  ++stats_.faulted_transfers;
  ++stats_.exhausted_transfers;
  stats_.unrecovered_faults += failed_attempts;
  out.done = t;
  out.delivered = false;
  return out;
}

void AddFaultFlags(FlagParser* flags) {
  flags->AddInt("fault-seed", 0, "fault-injection RNG seed");
  flags->AddInt("fault-max-attempts", 4,
                "KV transfer attempts before degrading to recomputation");
  flags->AddDouble("fault-backoff-s", 0.01,
                   "initial retry backoff (seconds); doubles per retry");
  flags->AddDouble("fault-timeout-s", 0.2,
                   "detection window burned by a timed-out transfer attempt");
  flags->AddDouble("fault-stall-factor", 4.0,
                   "slowdown multiplier for stalled transfer attempts");
  flags->AddDouble("fault-pcie-timeout", 0.0,
                   "per-attempt timeout probability on the PCIe (swap) link");
  flags->AddDouble("fault-pcie-stall", 0.0,
                   "per-attempt stall probability on the PCIe (swap) link");
  flags->AddDouble("fault-pcie-partial", 0.0,
                   "per-attempt partial-transfer probability on the PCIe link");
  flags->AddDouble("fault-pcie-corrupt", 0.0,
                   "per-attempt silent-corruption probability on the PCIe "
                   "link (caught by block checksums at swap-in)");
  flags->AddDouble("fault-nic-timeout", 0.0,
                   "per-attempt timeout probability on the inter-replica NIC");
  flags->AddDouble("fault-nic-stall", 0.0,
                   "per-attempt stall probability on the inter-replica NIC");
  flags->AddDouble("fault-nic-partial", 0.0,
                   "per-attempt partial-transfer probability on the NIC");
  flags->AddDouble("fault-nic-corrupt", 0.0,
                   "per-attempt silent-corruption probability on the NIC "
                   "(caught by block checksums at migration arrival)");
  flags->AddDouble("fault-ssd-timeout", 0.0,
                   "per-attempt timeout probability on the flash (SSD) link");
  flags->AddDouble("fault-ssd-stall", 0.0,
                   "per-attempt stall probability on the flash (SSD) link");
  flags->AddDouble("fault-ssd-partial", 0.0,
                   "per-attempt partial-transfer probability on the SSD link");
  flags->AddDouble("fault-ssd-corrupt", 0.0,
                   "per-attempt silent-corruption probability on the SSD "
                   "link (caught by block checksums at promote-from-SSD)");
}

FaultConfig FaultConfigFromFlags(const FlagParser& flags) {
  FaultConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("fault-seed"));
  config.retry.max_attempts =
      static_cast<int32_t>(flags.GetInt("fault-max-attempts"));
  config.retry.backoff_initial = flags.GetDouble("fault-backoff-s");
  config.pcie.timeout_rate = flags.GetDouble("fault-pcie-timeout");
  config.pcie.stall_rate = flags.GetDouble("fault-pcie-stall");
  config.pcie.partial_rate = flags.GetDouble("fault-pcie-partial");
  config.pcie.corruption_rate = flags.GetDouble("fault-pcie-corrupt");
  config.nic.timeout_rate = flags.GetDouble("fault-nic-timeout");
  config.nic.stall_rate = flags.GetDouble("fault-nic-stall");
  config.nic.partial_rate = flags.GetDouble("fault-nic-partial");
  config.nic.corruption_rate = flags.GetDouble("fault-nic-corrupt");
  config.ssd.timeout_rate = flags.GetDouble("fault-ssd-timeout");
  config.ssd.stall_rate = flags.GetDouble("fault-ssd-stall");
  config.ssd.partial_rate = flags.GetDouble("fault-ssd-partial");
  config.ssd.corruption_rate = flags.GetDouble("fault-ssd-corrupt");
  for (LinkFaultProfile* profile : {&config.pcie, &config.nic, &config.ssd}) {
    profile->timeout_seconds = flags.GetDouble("fault-timeout-s");
    profile->stall_factor = flags.GetDouble("fault-stall-factor");
  }
  return config;
}

}  // namespace pensieve
