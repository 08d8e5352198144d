#include "src/cluster/elastic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "src/common/logging.h"

namespace pensieve {

Status HealthOptions::Validate() const {
  for (const SickWindow& w : sick) {
    if (w.replica_id < 0 || w.begin < 0.0 || w.end <= w.begin) {
      return Status::InvalidArgument(
          "health.sick window of replica " + std::to_string(w.replica_id) +
          " needs replica_id >= 0 and 0 <= begin < end");
    }
  }
  if (!enabled) {
    return Status::Ok();
  }
  return CheckRules({
      {probe_interval <= 0.0, "health.probe_interval must be > 0"},
      {probe_timeout <= 0.0, "health.probe_timeout must be > 0"},
      {suspect_after < 1, "health.suspect_after must be >= 1"},
      {quarantine_after < suspect_after,
       "health.quarantine_after must be >= health.suspect_after"},
      {healthy_after < 1, "health.healthy_after must be >= 1"},
  });
}

HealthMonitor::HealthMonitor(int32_t num_replicas,
                             const HealthOptions& options)
    : options_(options), slots_(static_cast<size_t>(num_replicas)) {
  PENSIEVE_CHECK_OK(options_.Validate());
}

bool HealthMonitor::InSickWindow(int32_t replica, double now) const {
  for (const SickWindow& w : options_.sick) {
    if (w.replica_id == replica && now >= w.begin && now < w.end) {
      return true;
    }
  }
  return false;
}

HealthMonitor::Transition HealthMonitor::RecordProbe(int32_t replica,
                                                     bool ok) {
  Slot& slot = slots_[static_cast<size_t>(replica)];
  ++stats_.probes_sent;
  if (ok) {
    ++stats_.probes_ok;
    slot.consecutive_failures = 0;
    ++slot.consecutive_successes;
    if (slot.health == ReplicaHealth::kQuarantined &&
        slot.consecutive_successes >= options_.healthy_after) {
      slot.health = ReplicaHealth::kHealthy;
      slot.consecutive_successes = 0;
      ++stats_.reinstatements;
      return Transition::kReinstate;
    }
    if (slot.health == ReplicaHealth::kSuspect &&
        slot.consecutive_successes >= options_.healthy_after) {
      // A suspect never left the dispatch set; it recovers silently.
      slot.health = ReplicaHealth::kHealthy;
      slot.consecutive_successes = 0;
    }
    return Transition::kNone;
  }
  ++stats_.probes_failed;
  slot.consecutive_successes = 0;
  ++slot.consecutive_failures;
  if (slot.health != ReplicaHealth::kQuarantined &&
      slot.consecutive_failures >= options_.quarantine_after) {
    slot.health = ReplicaHealth::kQuarantined;
    ++stats_.quarantines;
    return Transition::kQuarantine;
  }
  if (slot.health == ReplicaHealth::kHealthy &&
      slot.consecutive_failures >= options_.suspect_after) {
    slot.health = ReplicaHealth::kSuspect;
    ++stats_.suspects;
    return Transition::kSuspect;
  }
  return Transition::kNone;
}

void HealthMonitor::Reset(int32_t replica) {
  slots_[static_cast<size_t>(replica)] = Slot{};
}

ReplicaHealth HealthMonitor::health(int32_t replica) const {
  return slots_[static_cast<size_t>(replica)].health;
}

Status AutoscaleOptions::Validate() const {
  if (!enabled) {
    return Status::Ok();
  }
  return CheckRules({
      {min_replicas < 1, "autoscale.min_replicas must be >= 1"},
      {max_replicas < min_replicas,
       "autoscale.max_replicas must be >= autoscale.min_replicas"},
      {check_interval <= 0.0, "autoscale.check_interval must be > 0"},
      {cooldown < 0.0, "autoscale.cooldown must be >= 0"},
      {up_queue_tokens <= down_queue_tokens,
       "autoscale.up_queue_tokens must exceed autoscale.down_queue_tokens "
       "(the gap is the hysteresis band)"},
      {latency_window < 1, "autoscale.latency_window must be >= 1"},
  });
}

Autoscaler::Autoscaler(const AutoscaleOptions& options) : options_(options) {
  PENSIEVE_CHECK_OK(options_.Validate());
}

void Autoscaler::RecordFinish(double normalized_latency) {
  if (!options_.enabled) {
    return;
  }
  const size_t cap = static_cast<size_t>(options_.latency_window);
  if (window_.size() < cap) {
    window_.push_back(normalized_latency);
  } else {
    window_[window_next_ % cap] = normalized_latency;
  }
  ++window_next_;
}

double Autoscaler::RecentP99() const {
  if (window_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = window_;
  std::sort(sorted.begin(), sorted.end());
  const size_t idx = static_cast<size_t>(
      std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                       std::ceil(0.99 * static_cast<double>(sorted.size())) - 1.0));
  return sorted[idx];
}

Autoscaler::Decision Autoscaler::Decide(double now,
                                        int64_t total_weighted_tokens,
                                        int32_t active_replicas) const {
  if (!options_.enabled || active_replicas <= 0) {
    return Decision::kHold;
  }
  if (now - last_scale_time_ < options_.cooldown) {
    return Decision::kHold;
  }
  const int64_t per_replica =
      total_weighted_tokens / static_cast<int64_t>(active_replicas);
  const double p99 = options_.up_p99_latency > 0.0 ? RecentP99() : 0.0;
  const bool latency_hot =
      options_.up_p99_latency > 0.0 && p99 > options_.up_p99_latency;
  if ((per_replica > options_.up_queue_tokens || latency_hot) &&
      active_replicas < options_.max_replicas) {
    return Decision::kUp;
  }
  if (per_replica < options_.down_queue_tokens && !latency_hot &&
      active_replicas > options_.min_replicas) {
    return Decision::kDown;
  }
  return Decision::kHold;
}

std::string FormatElasticSummary(const ElasticStats& stats) {
  std::string out;
  char buf[512];
  const HealthStats& h = stats.health;
  if (h.probes_sent > 0) {
    std::snprintf(buf, sizeof(buf),
                  "health-probes:     %lld sent (%lld ok, %lld failed), "
                  "%lld suspects\n",
                  static_cast<long long>(h.probes_sent),
                  static_cast<long long>(h.probes_ok),
                  static_cast<long long>(h.probes_failed),
                  static_cast<long long>(h.suspects));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "quarantines:       %lld (%lld reinstated), %lld requests + "
                  "%lld KV tokens drained, %lld streams voided\n",
                  static_cast<long long>(h.quarantines),
                  static_cast<long long>(h.reinstatements),
                  static_cast<long long>(h.drained_requests),
                  static_cast<long long>(h.drained_kv_tokens),
                  static_cast<long long>(h.voided_streams));
    out += buf;
  }
  const AutoscaleStats& a = stats.autoscale;
  if (a.scale_ups > 0 || a.scale_downs > 0 || !a.events.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "scale-events:      %lld up, %lld down (active %d..%d), "
                  "%lld requests + %lld KV tokens drained, %lld idle KV "
                  "released\n",
                  static_cast<long long>(a.scale_ups),
                  static_cast<long long>(a.scale_downs),
                  a.min_active_replicas, a.peak_active_replicas,
                  static_cast<long long>(a.drained_requests),
                  static_cast<long long>(a.drained_kv_tokens),
                  static_cast<long long>(a.released_kv_tokens));
    out += buf;
  }
  return out;
}

}  // namespace pensieve
