#include "src/cluster/cluster_driver.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/cluster/replica.h"
#include "src/common/logging.h"
#include "src/serving/experiment_core.h"
#include "src/sim/event_loop.h"
#include "src/sim/kv_stream.h"

namespace pensieve {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

// The replica slots plus the membership state that decides which of them
// may take new work: alive, in the autoscaler's active set, and not
// quarantined by the health monitor (DESIGN.md §14).
class ReplicaSet {
 public:
  ReplicaSet(const ReplicaEngineFactory& make_engine, int32_t n,
             const HealthMonitor* health)
      : health_(health) {
    PENSIEVE_CHECK(make_engine != nullptr);
    slots_.reserve(static_cast<size_t>(n));
    for (int32_t i = 0; i < n; ++i) {
      slots_.emplace_back(i, make_engine(i));
    }
    active_.assign(static_cast<size_t>(n), true);
  }

  int32_t size() const { return static_cast<int32_t>(slots_.size()); }
  Replica& operator[](int32_t i) { return slots_[static_cast<size_t>(i)]; }
  const std::vector<Replica>& all() const { return slots_; }

  // Autoscaler membership. Inactive slots hold no engine; a scale-up
  // recovers the lowest inactive slot with a fresh engine.
  bool active(int32_t i) const { return active_[static_cast<size_t>(i)]; }
  void set_active(int32_t i, bool active) {
    active_[static_cast<size_t>(i)] = active;
  }

  bool Dispatchable(int32_t i) const {
    return slots_[static_cast<size_t>(i)].alive() && active(i) &&
           !health_->Quarantined(i);
  }
  bool AnyAlive() const {
    return std::any_of(slots_.begin(), slots_.end(),
                       [](const Replica& r) { return r.alive(); });
  }
  int32_t ActiveAliveCount() const {
    int32_t n = 0;
    for (int32_t i = 0; i < size(); ++i) {
      n += active(i) && slots_[static_cast<size_t>(i)].alive() ? 1 : 0;
    }
    return n;
  }

 private:
  std::vector<Replica> slots_;
  std::vector<bool> active_;
  const HealthMonitor* health_;
};

// The inter-replica NIC's data plane: every KV transfer runs the fault
// injector's retry loop over the interconnect's ports.
struct Nic {
  ClusterInterconnect link;
  LinkFaultInjector faults;

  LinkTransferOutcome Ship(int32_t src, int32_t dst, double now,
                           double bytes) {
    return faults.Transfer(now, bytes, [&](double start, double b) {
      return link.ScheduleTransfer(src, dst, start, b);
    });
  }
};

// One prefill->decode KV stream on the NIC (DESIGN.md §13). Indexed by its
// kHandoffArrival event id; the entry outlives the stream so a replica
// failure between launch and arrival can void the payload in place.
struct HandoffStream {
  int64_t conversation_id = 0;
  int32_t src = -1;
  int32_t dst = -1;
  MigratedKvState state;
  Request continuation;
  bool state_only = false;  // nothing left to decode; KV placement only
  bool cancelled = false;   // an endpoint died mid-stream; payload lost
  bool arrived = false;     // the kHandoffArrival event has been processed
};

// Prefill-side half of a handed-off turn, waiting to be merged with the
// decode-side half into one end-to-end outcome. A conversation has at most
// one turn in flight, so at most one chain.
struct HandoffChain {
  Request original;
  RequestOutcome partial;
  bool has_partial = false;
};

// Owner of the disaggregated-handoff state (DESIGN.md §13): each handed-off
// turn's merge chain, every KV stream launched this run, and their
// HandoffStats. Lost stream payloads are charged to `faults` as well.
class HandoffTracker {
 public:
  explicit HandoffTracker(FaultStats* faults) : faults_(faults) {}

  HandoffStats& stats() { return stats_; }
  const HandoffStats& stats() const { return stats_; }

  // Counts a turn's dispatch decision. A turn sent to the prefill pool
  // (re)arms its merge chain: any existing chain belongs to an earlier
  // incarnation of this same turn (its prefill replica crashed first).
  void NoteDispatch(const Request& req, bool prefill_handoff) {
    if (!prefill_handoff) {
      ++stats_.colocated_requests;
      return;
    }
    ++stats_.handoff_requests;
    HandoffChain& chain = chains_[req.conversation_id];
    if (!chain.has_partial) {
      chain.original = req;
      chain.original.prefill_only = false;
      chain.partial = RequestOutcome{};
      chain.partial.request = chain.original;
    }
  }

  // Folds a finished prefill half into its turn's chain.
  HandoffChain& AddPrefillHalf(const RequestOutcome& outcome,
                               int32_t prefill_replica) {
    auto it = chains_.find(outcome.request.conversation_id);
    PENSIEVE_CHECK(it != chains_.end())
        << "prefill finished with no chain for conversation "
        << outcome.request.conversation_id;
    HandoffChain& chain = it->second;
    if (!chain.has_partial) {
      chain.partial.first_scheduled_time = outcome.first_scheduled_time;
      chain.partial.first_token_time = outcome.first_token_time;
      chain.partial.prefill_compute_start = outcome.prefill_compute_start;
      chain.partial.prefill_replica = prefill_replica;
      chain.has_partial = true;
    }
    chain.partial.AddWork(outcome);
    return chain;
  }

  // Merges the prefill- and decode-side halves of a handed-off turn into one
  // end-to-end outcome and closes the chain. `decode_half` is null for
  // single-token responses that finished entirely on the prefill side.
  RequestOutcome CloseChain(int64_t conv, const RequestOutcome* decode_half,
                            double finish_time) {
    auto it = chains_.find(conv);
    PENSIEVE_CHECK(it != chains_.end())
        << "handoff half finished with no chain for conversation " << conv;
    RequestOutcome merged = it->second.partial;
    merged.request = it->second.original;
    merged.finish_time = finish_time;
    if (decode_half != nullptr) {
      merged.AddWork(*decode_half);
      merged.decode_admit_time = decode_half->first_scheduled_time;
    }
    chains_.erase(it);
    return merged;
  }

  // Accounts a launched stream's wire result; a failed stream loses its
  // payload, leaving `state` as bookkeeping only.
  void RecordStream(const KvStreamResult& stream, double prefill_finish,
                    MigratedKvState* state) {
    ++stats_.streams;
    stats_.stream_chunks += stream.chunks_delivered;
    stats_.stream_bytes += stream.bytes_delivered;
    if (stream.delivered) {
      stats_.overlap_saved_seconds += stream.unpipelined_done - stream.done;
      stats_.stream_wait_seconds +=
          std::max(0.0, stream.done - prefill_finish);
    } else {
      Lose(state);
    }
  }

  // Registers an in-flight stream; returns its kHandoffArrival event id.
  int64_t Launch(HandoffStream stream) {
    streams_.push_back(std::move(stream));
    return static_cast<int64_t>(streams_.size()) - 1;
  }
  HandoffStream& stream(int64_t id) {
    return streams_[static_cast<size_t>(id)];
  }

  // Voids the payload of every in-flight stream into `replica` — and out of
  // it too when `include_source` (the replica crashed). The arrival event
  // still fires and delivers (or re-routes) the continuation with
  // bookkeeping only, so the decode side degrades to dropped-prefix
  // recompute instead of dropping the request. Returns the streams voided.
  int64_t VoidStreams(int32_t replica, bool include_source) {
    int64_t voided = 0;
    for (HandoffStream& s : streams_) {
      if (s.arrived || s.cancelled || s.state.resident_tokens <= 0 ||
          (s.dst != replica && !(include_source && s.src == replica))) {
        continue;
      }
      s.cancelled = true;
      Lose(&s.state);
      ++voided;
    }
    return voided;
  }

  // A stream's payload is gone: counted as a failed stream and as lost KV.
  void Lose(MigratedKvState* state) {
    ++stats_.failed_streams;
    stats_.kv_tokens_lost += state->resident_tokens;
    faults_->lost_kv_tokens += state->resident_tokens;
    state->resident_tokens = 0;
    state->bytes = 0.0;
  }

 private:
  FaultStats* faults_;
  std::unordered_map<int64_t, HandoffChain> chains_;
  std::vector<HandoffStream> streams_;
  HandoffStats stats_;
};

std::unique_ptr<Router> MakeClusterRouter(const ClusterOptions& options) {
  if (!options.disagg.enabled) {
    return MakeRouter(options.router);
  }
  DisaggRouterConfig config;
  config.prefill_replicas = options.disagg.prefill_replicas;
  config.min_handoff_tokens = options.disagg.min_handoff_tokens;
  return MakeDisaggRouter(config);
}

// Probes are control-plane traffic: they share the NIC's latency/bandwidth
// figures but never occupy data ports, and each probe gets exactly one
// attempt (the next round is the retry). The injector seed mixes the
// cluster fault seed with a probe salt so arming probes never perturbs the
// data-plane fault draw sequence.
LinkFaultInjector MakeProbeInjector(const ClusterOptions& options) {
  LinkRetryPolicy single_attempt;
  single_attempt.max_attempts = 1;
  return LinkFaultInjector(
      options.fault_seed ^ options.elastic.health.probe_seed,
      options.elastic.health.probe_faults, single_attempt);
}

// One multi-replica run. The members are the run's whole state; each queued
// event kind and each replica step has one handler method.
class ClusterSim {
 public:
  ClusterSim(const ReplicaEngineFactory& make_engine, const WorkloadTrace& trace,
             const ClusterOptions& options)
      : make_engine_(make_engine),
        trace_(trace),
        options_(options),
        elastic_(options.elastic),
        replicas_(make_engine, options.num_replicas, &health_),
        health_(options.num_replicas, elastic_.health),
        router_(MakeClusterRouter(options)),
        nic_{ClusterInterconnect(options.num_replicas, options.interconnect),
             LinkFaultInjector(options.fault_seed, options.nic_fault_profile,
                               options.fault_retry)},
        scaler_(elastic_.autoscale),
        probe_faults_(MakeProbeInjector(options)),
        arrivals_(trace, &events_),
        handoff_(&faults_),
        views_(static_cast<size_t>(options.num_replicas)) {
    if (elastic_.autoscale.enabled) {
      for (int32_t i = elastic_.autoscale.min_replicas;
           i < options.num_replicas; ++i) {
        replicas_[i].Dormant();
        replicas_.set_active(i, false);
        router_->NotifyReplicaDown(i);
      }
    }
    autoscale_.peak_active_replicas = replicas_.ActiveAliveCount();
    autoscale_.min_active_replicas = autoscale_.peak_active_replicas;
    // Arrivals and scheduled faults pop in deterministic order (arrival <
    // fail < recover on time ties); replica steps rank after all of them so
    // routers always see fresh state.
    for (const ReplicaFault& fault : options.faults) {
      Schedule(fault.time,
               fault.recover ? SimEventKind::kReplicaRecover
                             : SimEventKind::kReplicaFail,
               fault.replica_id);
    }
    // Control-plane timers start one interval in (the cluster state at t=0
    // is by construction healthy and unloaded).
    if (elastic_.health.enabled) {
      Schedule(elastic_.health.probe_interval, SimEventKind::kHealthProbe);
    }
    if (elastic_.autoscale.enabled) {
      Schedule(elastic_.autoscale.check_interval, SimEventKind::kAutoscale);
    }
  }

  ClusterSummary Run() {
    while (Advance()) {
    }
    for (const Replica& r : replicas_.all()) {
      if (r.alive() && r.engine().HasWork()) {
        PENSIEVE_LOG_WARNING << "replica " << r.id()
                             << " still has work at experiment end (stalled)";
      }
    }
    if (!orphans_.empty()) {
      PENSIEVE_LOG_WARNING << orphans_.size()
                           << " request(s) orphaned by replica failures never "
                              "ran (no recovery scheduled)";
    }
    return Summarize();
  }

 private:
  // Processes the next queued event or replica step; false once the run is
  // over. Queued events outrank replica steps on ties: everything due is
  // delivered before a replica steps, and routers see the freshest queue
  // state.
  bool Advance() {
    double t_replica = kNever;
    int32_t next_replica = -1;
    for (int32_t i = 0; i < replicas_.size(); ++i) {
      const double t = replicas_[i].NextEventTime();
      if (t < t_replica) {
        t_replica = t;
        next_replica = i;
      }
    }
    if (events_.NextTime() <= t_replica) {
      if (events_.Empty()) {
        return false;  // both sides quiescent
      }
      const SimEvent event = events_.Pop();
      switch (event.kind) {
        case SimEventKind::kArrival:
          RouteAndDeliver(arrivals_.BuildRequest(event), event.time,
                          /*allow_migrate=*/true);
          break;
        case SimEventKind::kReplicaFail:
          OnFail(event);
          break;
        case SimEventKind::kReplicaRecover:
          OnRecover(event);
          break;
        case SimEventKind::kHandoffArrival:
          OnHandoffArrival(event);
          break;
        case SimEventKind::kHealthProbe:
          OnProbe(event.time);
          break;
        case SimEventKind::kAutoscale:
          OnAutoscale(event.time);
          break;
      }
      return true;
    }
    if (next_replica < 0) {
      return false;
    }
    OnStep(next_replica);
    if (options_.max_steps > 0 && total_steps_ >= options_.max_steps) {
      PENSIEVE_LOG_WARNING << "cluster experiment hit max_steps="
                           << options_.max_steps;
      return false;
    }
    return true;
  }

  void SnapshotViews() {
    bool any_dispatchable = false;
    for (int32_t i = 0; i < replicas_.size(); ++i) {
      ReplicaView& view = views_[static_cast<size_t>(i)];
      Replica& r = replicas_[i];
      view.alive = r.alive();
      view.engine = view.alive ? &r.engine() : nullptr;
      view.load = view.alive ? r.engine().Load() : EngineLoad{};
      // Routed-but-undelivered work is invisible to the engine; without it a
      // burst dispatched between replica steps sees every load as zero and
      // herds. Folded into the weighted term only, so unweighted
      // (session-affinity / --disagg=off) decisions are untouched.
      view.load.queued_uncached_prefill_tokens += r.pending_request_tokens();
      view.dispatchable = replicas_.Dispatchable(i);
      any_dispatchable = any_dispatchable || view.dispatchable;
    }
    if (!any_dispatchable) {
      // Emergency: every alive replica is quarantined (or inactive). Routing
      // to a sick replica beats orphaning the request — quarantine is a
      // suspicion, not a death certificate.
      for (ReplicaView& view : views_) {
        view.dispatchable = view.alive;
      }
    }
  }

  RoutingDecision Route(const Request& req) {
    if (replicas_.size() == 1) {
      // One slot leaves every router one answer; skip the load snapshot,
      // which walks the engine's whole queue on every arrival.
      PENSIEVE_CHECK(replicas_[0].alive())
          << "routed request " << req.request_id << " to dead replica 0";
      return RoutingDecision{};
    }
    SnapshotViews();
    const RoutingDecision decision = router_->Route(req, views_);
    PENSIEVE_CHECK_GE(decision.target, 0);
    PENSIEVE_CHECK_LT(decision.target, replicas_.size());
    PENSIEVE_CHECK(views_[static_cast<size_t>(decision.target)].alive)
        << router_->name() << " routed request " << req.request_id
        << " to dead replica " << decision.target;
    return decision;
  }

  // Ships a conversation's exported KV from `src` to `dst` for a delivery
  // leaving at `depart`: the delivery cannot start at its new home before
  // the transfer lands or is abandoned. KV lost in transit still re-homes
  // the conversation, with bookkeeping only — its history recomputes at the
  // destination through the dropped-prefix path. Returns whether it landed.
  bool ShipKv(int32_t src, int32_t dst, double depart, MigratedKvState* state,
              Replica::Delivery* delivery) {
    const LinkTransferOutcome out = nic_.Ship(src, dst, depart, state->bytes);
    delivery->time = out.done;
    delivery->migration_stall = out.done - depart;
    ++migration_.migrations;
    migration_.migration_stall_seconds += delivery->migration_stall;
    if (out.delivered) {
      migration_.migrated_bytes += state->bytes;
      return true;
    }
    ++migration_.failed_migrations;
    migration_.kv_tokens_lost_in_transit += state->resident_tokens;
    faults_.lost_kv_tokens += state->resident_tokens;
    state->resident_tokens = 0;
    state->bytes = 0.0;
    return false;
  }

  void Orphan(const Request& req) {
    orphans_.push_back(req);
    ++faults_.orphaned_requests;
  }

  // Routes `req` at virtual time `now` and delivers it to the chosen
  // replica. `allow_migrate` is false for crash-rerouted requests: the KV
  // they would have migrated died with their replica.
  void RouteAndDeliver(const Request& req, double now, bool allow_migrate) {
    if (!replicas_.AnyAlive()) {
      Orphan(req);
      return;
    }
    const RoutingDecision decision = Route(req);
    Replica::Delivery delivery;
    delivery.time = now;
    delivery.request = req;
    if (options_.disagg.enabled && !req.handoff_continuation) {
      // The router decides afresh at every dispatch (including crash
      // re-drains) whether this turn prefills remotely or runs colocated.
      delivery.request.prefill_only = decision.prefill_handoff;
      handoff_.NoteDispatch(req, decision.prefill_handoff);
    }
    if (allow_migrate && decision.migrate && decision.source >= 0 &&
        decision.source != decision.target &&
        replicas_[decision.source].alive()) {
      MigratedKvState state =
          replicas_[decision.source].engine().ExportConversationState(
              req.conversation_id);
      if (state.resident_tokens > 0) {
        ShipKv(decision.source, decision.target, now, &state, &delivery);
      }
      delivery.migrated = state;
    }
    replicas_[decision.target].Deliver(std::move(delivery));
  }

  // Re-routes one delivery drained off a still-alive replica `src`
  // (quarantine or scale-down retirement), hand-carrying its KV: an
  // in-flight migrated payload is re-forwarded as is, otherwise the
  // conversation's cached state is exported from `src`. The extra hop is
  // charged on the NIC exactly like a router-initiated migration.
  // `drained_kv_tokens` accumulates the tokens that reached a new home.
  void RerouteDrained(const Replica::Delivery& d, int32_t src, double now,
                      int64_t* drained_kv_tokens) {
    const double base = std::max(now, d.time);
    if (!replicas_.AnyAlive()) {
      Orphan(d.request);
      return;
    }
    MigratedKvState state = d.migrated;
    if (state.Empty() && replicas_[src].alive()) {
      state = replicas_[src].engine().ExportConversationState(
          d.request.conversation_id);
      // A request drained mid-decode leaves KV for the tokens it had already
      // generated this turn. That progress restarts from scratch at the new
      // home (it is in lost_generated_tokens), so the trailing decode KV
      // must not travel: the import would otherwise cover more raw history
      // than the restarted request has.
      const int64_t excess = state.kv_len - d.request.history_len;
      if (excess > 0) {
        const int64_t kept =
            std::max<int64_t>(0, state.resident_tokens - excess);
        if (state.resident_tokens > 0) {
          state.bytes *= static_cast<double>(kept) /
                         static_cast<double>(state.resident_tokens);
        }
        state.kv_len = d.request.history_len;
        state.resident_tokens = kept;
      }
    }
    const RoutingDecision decision = Route(d.request);
    Replica::Delivery out;
    out.time = base;
    out.request = d.request;
    if (state.resident_tokens > 0 && decision.target != src &&
        ShipKv(src, decision.target, base, &state, &out)) {
      *drained_kv_tokens += state.resident_tokens;
    }
    out.migrated = state;
    replicas_[decision.target].Deliver(std::move(out));
  }

  void OnFail(const SimEvent& event) {
    const int32_t id = static_cast<int32_t>(event.id);
    Replica& victim = replicas_[id];
    if (!victim.alive()) {
      PENSIEVE_LOG_WARNING << "fail event for already-dead replica " << id
                           << " at t=" << event.time << "; ignored";
      return;
    }
    // The router forgets the replica first so re-routed (and all future)
    // requests pick an alive home. Probe history dies with the replica; it
    // restarts healthy on recovery.
    router_->NotifyReplicaDown(id);
    health_.Reset(id);
    Replica::FailureDrain drain = victim.Fail(event.time);
    ++faults_.failures;
    faults_.lost_kv_tokens += drain.lost_kv_tokens;
    faults_.lost_generated_tokens += drain.lost_generated_tokens;
    faults_.rerouted_requests += static_cast<int64_t>(drain.deliveries.size());
    for (const Replica::Delivery& d : drain.deliveries) {
      RouteAndDeliver(d.request, event.time, /*allow_migrate=*/false);
    }
    // KV streams touching the dead replica die mid-flight.
    handoff_.VoidStreams(id, /*include_source=*/true);
  }

  // Brings `slot` up with a fresh engine in the active set; requests
  // stranded while no replica could take them run here.
  void BringUp(int32_t slot, double now) {
    replicas_[slot].Recover(make_engine_(slot), now);
    replicas_.set_active(slot, true);
    health_.Reset(slot);
    router_->NotifyReplicaUp(slot);
    std::vector<Request> stranded;
    stranded.swap(orphans_);
    for (const Request& req : stranded) {
      RouteAndDeliver(req, now, /*allow_migrate=*/false);
    }
  }

  void OnRecover(const SimEvent& event) {
    const int32_t id = static_cast<int32_t>(event.id);
    if (replicas_[id].alive()) {
      PENSIEVE_LOG_WARNING << "recover event for alive replica " << id
                           << " at t=" << event.time << "; ignored";
      return;
    }
    // A scheduled recovery targeting a dormant/retired slot puts it back in
    // the active set (it is serving now, whatever the autoscaler thinks).
    ++faults_.recoveries;
    BringUp(id, event.time);
  }

  // Quarantine: the replica is alive but failing probes. It leaves the
  // dispatch set, and everything it still owes is proactively drained over
  // the migration path — requests re-route with their KV hand-carried, so
  // a later hard failure of this replica destroys far less.
  void Quarantine(int32_t id, double now) {
    router_->NotifyReplicaDown(id);
    Replica& victim = replicas_[id];
    if (!victim.alive()) {
      return;  // already down; the failure path drained it
    }
    HealthStats& hs = health_.stats();
    Replica::LiveDrain drain = victim.DrainLive(now, /*keep_state_only=*/true);
    hs.drained_requests += static_cast<int64_t>(drain.deliveries.size());
    hs.lost_generated_tokens += drain.lost_generated_tokens;
    for (const Replica::Delivery& d : drain.deliveries) {
      if (options_.disagg.enabled) {
        // Disagg re-dispatch must re-run the handoff chain logic; the
        // request re-routes without a KV carry (any in-flight payload is
        // voided, mirroring the crash path).
        if (!d.migrated.Empty()) {
          faults_.lost_kv_tokens += d.migrated.resident_tokens;
        }
        RouteAndDeliver(d.request, std::max(now, d.time),
                        /*allow_migrate=*/false);
      } else {
        RerouteDrained(d, id, now, &hs.drained_kv_tokens);
      }
    }
    // KV streams aimed at the quarantined replica are voided — their payload
    // would land on a sick target. The source side of a stream stays: the
    // quarantined replica is alive and keeps streaming what it already owes.
    hs.voided_streams += handoff_.VoidStreams(id, /*include_source=*/false);
  }

  // True while re-arming a control-plane timer could still matter: any
  // non-timer event pending, any replica with a finite next-event time, or
  // stranded work a future scale-up could rescue. When false, the timer lets
  // itself lapse so the run can terminate.
  bool Busy() const {
    const int64_t timers = events_.PendingOfKind(SimEventKind::kHealthProbe) +
                           events_.PendingOfKind(SimEventKind::kAutoscale);
    if (static_cast<int64_t>(events_.Size()) > timers) {
      return true;
    }
    for (const Replica& r : replicas_.all()) {
      if (r.NextEventTime() < kNever) {
        return true;
      }
    }
    if (!orphans_.empty()) {
      // Only the autoscaler leaves a slot inactive.
      for (int32_t i = 0; i < replicas_.size(); ++i) {
        if (!replicas_.active(i)) {
          return true;  // a scale-up could still rescue the orphans
        }
      }
    }
    return false;
  }

  void Schedule(double time, SimEventKind kind, int64_t id = 0) {
    events_.Push(SimEvent{time, kind, id});
  }

  // One probe round: every alive, active replica is probed once on the NIC
  // with a single attempt; ok means delivered within the probe timeout. A
  // sick window forces the verdict to failed *after* the draw, so arming
  // sick windows never shifts the probe RNG sequence.
  void OnProbe(double now) {
    const InterconnectSpec& spec = nic_.link.spec();
    for (int32_t i = 0; i < replicas_.size(); ++i) {
      if (!replicas_[i].alive() || !replicas_.active(i)) {
        continue;  // dead and dormant replicas are not probed
      }
      const LinkTransferOutcome out = probe_faults_.Transfer(
          now, elastic_.health.probe_bytes, [&](double start, double bytes) {
            return start + spec.latency + bytes / spec.bandwidth;
          });
      const bool ok = out.delivered &&
                      (out.done - now) <= elastic_.health.probe_timeout &&
                      !health_.InSickWindow(i, now);
      switch (health_.RecordProbe(i, ok)) {
        case HealthMonitor::Transition::kQuarantine:
          Quarantine(i, now);
          break;
        case HealthMonitor::Transition::kReinstate:
          router_->NotifyReplicaUp(i);
          break;
        default:
          break;
      }
    }
    if (Busy()) {
      Schedule(now + elastic_.health.probe_interval, SimEventKind::kHealthProbe);
    }
  }

  void NoteScaled(double now, int32_t slot, bool up, int64_t signal_tokens,
                  double p99) {
    ++(up ? autoscale_.scale_ups : autoscale_.scale_downs);
    autoscale_.events.push_back(ScaleEvent{now, slot, up, signal_tokens, p99});
    scaler_.NoteScaled(now);
  }

  void ScaleUp(double now, int64_t signal_tokens, double p99) {
    for (int32_t slot = 0; slot < replicas_.size(); ++slot) {
      if (!replicas_.active(slot)) {
        NoteScaled(now, slot, /*up=*/true, signal_tokens, p99);
        BringUp(slot, now);
        return;
      }
    }
    // No inactive slot: crashed-but-active replicas keep their slots.
  }

  void ScaleDown(double now, int64_t signal_tokens, double p99) {
    // The highest active, alive slot retires.
    int32_t victim = replicas_.size() - 1;
    while (victim >= 0 &&
           !(replicas_.active(victim) && replicas_[victim].alive())) {
      --victim;
    }
    // The drained work needs somewhere dispatchable to land; if every other
    // replica is quarantined or down, keep the victim in service.
    bool other_home = false;
    for (int32_t i = 0; i < replicas_.size(); ++i) {
      other_home = other_home || (i != victim && replicas_.Dispatchable(i));
    }
    if (victim < 0 || !other_home) {
      return;
    }
    router_->NotifyReplicaDown(victim);
    replicas_.set_active(victim, false);
    Replica& r = replicas_[victim];
    Replica::LiveDrain drain = r.DrainLive(now, /*keep_state_only=*/false);
    autoscale_.drained_requests +=
        static_cast<int64_t>(drain.deliveries.size());
    autoscale_.lost_generated_tokens += drain.lost_generated_tokens;
    // State-only payloads discarded with the retiring replica are a
    // deliberate release, not a fault.
    autoscale_.released_kv_tokens += drain.dropped_state_tokens;
    for (const Replica::Delivery& d : drain.deliveries) {
      RerouteDrained(d, victim, now, &autoscale_.drained_kv_tokens);
    }
    autoscale_.released_kv_tokens += r.Retire(now);
    health_.Reset(victim);
    NoteScaled(now, victim, /*up=*/false, signal_tokens, p99);
  }

  void OnAutoscale(double now) {
    SnapshotViews();
    int64_t total_weighted = 0;
    int32_t n_active = 0;
    for (int32_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_.active(i) && replicas_[i].alive()) {
        total_weighted += views_[static_cast<size_t>(i)].load.WeightedTokens();
        ++n_active;
      }
    }
    const double p99 = scaler_.RecentP99();
    const int64_t per_replica =
        n_active > 0 ? total_weighted / n_active : total_weighted;
    if (n_active < elastic_.autoscale.min_replicas) {
      // Below the floor (crashes ate into the active set): restore it
      // immediately, cooldown notwithstanding — this is a safety floor, not
      // a load decision.
      ScaleUp(now, per_replica, p99);
    } else {
      switch (scaler_.Decide(now, total_weighted, n_active)) {
        case Autoscaler::Decision::kUp:
          ScaleUp(now, per_replica, p99);
          break;
        case Autoscaler::Decision::kDown:
          ScaleDown(now, per_replica, p99);
          break;
        case Autoscaler::Decision::kHold:
          break;
      }
    }
    const int32_t after = replicas_.ActiveAliveCount();
    autoscale_.peak_active_replicas =
        std::max(autoscale_.peak_active_replicas, after);
    autoscale_.min_active_replicas =
        std::min(autoscale_.min_active_replicas, after);
    if (Busy()) {
      Schedule(now + elastic_.autoscale.check_interval,
               SimEventKind::kAutoscale);
    }
  }

  void OnStep(int32_t id) {
    Replica& stepped = replicas_[id];
    const Replica::StepOutcome step = stepped.StepOnce(options_.step_trace);
    if (!step.progressed) {
      return;
    }
    for (const RequestOutcome& outcome : step.result.finished) {
      if (outcome.request.prefill_only) {
        OnPrefillFinished(outcome, id);
      } else if (outcome.request.handoff_continuation) {
        FinishChain(outcome.request.conversation_id, &outcome, id,
                    outcome.finish_time);
      } else {
        Finished(outcome);
      }
    }
    ++total_steps_;
  }

  // An end-to-end outcome is final: feed the autoscaler's latency signal,
  // export it, and schedule the conversation's next turn after the user's
  // think time.
  void Finished(const RequestOutcome& outcome) {
    if (elastic_.autoscale.enabled && outcome.request.target_output_len > 0) {
      scaler_.RecordFinish(outcome.NormalizedLatency());
    }
    if (options_.outcomes != nullptr) {
      options_.outcomes->push_back(outcome);
    }
    arrivals_.OnRequestFinished(outcome);
  }

  // Records a handed-off turn's merged outcome on the finishing replica.
  void FinishChain(int64_t conv, const RequestOutcome* decode_half,
                   int32_t finishing_replica, double finish_time) {
    const RequestOutcome merged =
        handoff_.CloseChain(conv, decode_half, finish_time);
    replicas_[finishing_replica].RecordOutcome(merged);
    Finished(merged);
  }

  // A prefill-role replica finished the prefill half of a handed-off turn:
  // fold its accounting into the chain, place the remainder on a decode
  // replica, export the KV, and launch the layer-pipelined stream. The
  // stream was already overlapping the prefill step, so its chunks become
  // ready across [prefill_compute_start, finish_time].
  void OnPrefillFinished(const RequestOutcome& outcome, int32_t p) {
    const int64_t conv = outcome.request.conversation_id;
    HandoffChain& chain = handoff_.AddPrefillHalf(outcome, p);

    // The decode-side remainder: the prefill side emitted the first output
    // token, which becomes the continuation's one-token "prompt".
    Request cont = outcome.request;
    cont.prefill_only = false;
    cont.handoff_continuation = true;
    cont.history_len =
        outcome.request.history_len + outcome.request.new_prompt_len;
    cont.new_prompt_len = 1;
    cont.target_output_len =
        outcome.request.target_output_len - outcome.generated_tokens;
    // Single-token responses finished entirely on the prefill side; the
    // stream below (if any) only places KV for the conversation's next turn.
    const bool state_only = cont.target_output_len <= 0;
    const int32_t d = Route(cont).target;

    // Decode pool routed back onto the prefill replica (pool dead: the KV is
    // already resident here), or nothing resident to stream (evicted under
    // pressure mid-prefill: the decode side recomputes the whole prefix).
    // Either way no wire transfer.
    MigratedKvState state;
    if (d != p) {
      state = replicas_[p].engine().ExportConversationState(conv);
      // The stream writes layer by layer into the decode GPU's KV pool; no
      // host->device restore is owed when the continuation admits.
      state.gpu_direct = true;
    }
    if (d == p || state.resident_tokens <= 0) {
      ++handoff_.stats().local_handoffs;
      if (state_only) {
        FinishChain(conv, nullptr, p, outcome.finish_time);
        return;
      }
      Replica::Delivery delivery;
      delivery.time = outcome.finish_time;
      delivery.request = cont;
      delivery.migrated = state;  // kv_len bookkeeping only
      replicas_[d].Deliver(std::move(delivery));
      return;
    }

    const KvStreamResult stream = StreamKvLayers(
        &nic_.link, &nic_.faults,
        KvStreamPlan{
            .src = p,
            .dst = d,
            .bytes = state.bytes,
            .num_layers = std::max<int64_t>(1, options_.disagg.stream_layers),
            .compute_start = outcome.prefill_compute_start,
            .compute_end = outcome.finish_time});
    handoff_.RecordStream(stream, outcome.finish_time, &state);
    chain.partial.handoff_stream_done = stream.done;
    if (state_only) {
      FinishChain(conv, nullptr, p, outcome.finish_time);
      // `chain` is dangling from here on.
    }

    Schedule(stream.done, SimEventKind::kHandoffArrival,
             handoff_.Launch(HandoffStream{.conversation_id = conv,
                                           .src = p,
                                           .dst = d,
                                           .state = state,
                                           .continuation = cont,
                                           .state_only = state_only}));
  }

  // A KV stream's final layer landed (or its abandonment time passed):
  // admit the continuation at the decode replica with whatever survived.
  void OnHandoffArrival(const SimEvent& event) {
    HandoffStream& s = handoff_.stream(event.id);
    s.arrived = true;
    Replica& dst = replicas_[s.dst];
    if (s.state_only && s.state.resident_tokens <= 0) {
      return;
    }
    if (s.state_only && !dst.alive()) {
      // Landed on a corpse (the failure that would have voided the payload
      // hit after our send completed): the KV is simply lost.
      handoff_.Lose(&s.state);
      return;
    }
    if (!s.state_only && !replicas_.Dispatchable(s.dst)) {
      // The decode target died — or was quarantined — while the stream was
      // in flight; the payload was voided at fail/quarantine time, and the
      // continuation re-routes afresh (degrading to recompute, never
      // dropping the request).
      RouteAndDeliver(s.continuation, event.time, /*allow_migrate=*/false);
      return;
    }
    Replica::Delivery delivery;
    delivery.time = event.time;
    delivery.migrated = s.state;
    delivery.state_only = s.state_only;
    if (s.state_only) {
      delivery.request.conversation_id = s.conversation_id;
    } else {
      delivery.request = s.continuation;
    }
    if (s.state.resident_tokens > 0) {
      handoff_.stats().streamed_tokens += s.state.resident_tokens;
    }
    dst.Deliver(std::move(delivery));
  }

  ClusterSummary Summarize() const {
    double global_last_finish = 0.0;
    for (const Replica& r : replicas_.all()) {
      global_last_finish = std::max(global_last_finish, r.last_finish_time());
    }
    const SteadyStateWindow window =
        ComputeSteadyStateWindow(ArrivalSpan(trace_), global_last_finish);

    ClusterSummary summary;
    summary.router_name = router_->name();
    summary.num_replicas = options_.num_replicas;
    summary.migration = migration_;
    summary.migration.rehomes = router_->counters().rehomes;
    summary.migration.overload_queued = router_->counters().overload_queued;
    std::vector<const MetricsCollector*> collectors;
    for (const Replica& r : replicas_.all()) {
      summary.replicas.push_back(r.metrics().Summarize(
          r.engine_name(), r.last_finish_time(), r.stats(), window.begin,
          window.end));
      collectors.push_back(&r.metrics());
      summary.migration.migrated_tokens += r.stats().migrated_in_tokens;
    }
    // The combined summary merges the per-replica collectors in place —
    // outcomes are stored once, in their replica's collector.
    summary.cluster = MetricsCollector::SummarizeMerged(
        collectors, std::string("cluster/") + router_->name(),
        global_last_finish, CombineEngineStats(summary.replicas), window.begin,
        window.end);
    summary.load_imbalance = LoadImbalance(summary.replicas);
    summary.faults = faults_;
    summary.nic_link_faults = nic_.faults.stats();
    summary.handoff = handoff_.stats();
    summary.elastic.health = health_.stats();
    summary.elastic.autoscale = autoscale_;
    if (options_.disagg.enabled) {
      summary.prefill_replicas = options_.disagg.prefill_replicas;
    }
    return summary;
  }

  const ReplicaEngineFactory& make_engine_;
  const WorkloadTrace& trace_;
  const ClusterOptions& options_;
  const ElasticOptions& elastic_;
  ReplicaSet replicas_;  // reads health_ only once the run starts
  HealthMonitor health_;
  std::unique_ptr<Router> router_;
  Nic nic_;
  Autoscaler scaler_;
  LinkFaultInjector probe_faults_;
  AutoscaleStats autoscale_;
  EventQueue events_;
  ArrivalProcess arrivals_;
  MigrationStats migration_;
  FaultStats faults_;
  HandoffTracker handoff_;
  // Requests with no alive replica to run on; flushed at the next bring-up.
  std::vector<Request> orphans_;
  std::vector<ReplicaView> views_;
  int64_t total_steps_ = 0;
};

}  // namespace

Status ClusterOptions::Validate() const {
  if (num_replicas < 1) {
    return Status::InvalidArgument("num_replicas must be >= 1");
  }
  for (const Status& status :
       {elastic.health.Validate(), elastic.autoscale.Validate()}) {
    if (!status.ok()) {
      return status;
    }
  }
  for (const ReplicaFault& fault : faults) {
    if (fault.replica_id < 0 || fault.replica_id >= num_replicas ||
        fault.time < 0.0) {
      return Status::InvalidArgument(
          "faults entry of replica " + std::to_string(fault.replica_id) +
          " needs replica_id in [0, num_replicas) and time >= 0");
    }
  }
  for (const SickWindow& window : elastic.health.sick) {
    if (window.replica_id >= num_replicas) {
      return Status::InvalidArgument(
          "health.sick window of replica " + std::to_string(window.replica_id) +
          " needs replica_id < num_replicas");
    }
  }
  const bool autoscale = elastic.autoscale.enabled;
  return CheckRules({
      {disagg.enabled && num_replicas < 2,
       "disagg needs num_replicas >= 2 (one prefill + one decode)"},
      {disagg.enabled && (disagg.prefill_replicas < 1 ||
                          disagg.prefill_replicas >= num_replicas),
       "disagg.prefill_replicas must be in [1, num_replicas - 1] so a decode "
       "replica remains"},
      {autoscale && disagg.enabled,
       "autoscale excludes disagg (the prefill/decode pools are statically "
       "partitioned)"},
      {autoscale && elastic.autoscale.max_replicas > num_replicas,
       "autoscale.max_replicas must be <= num_replicas (the slot count)"},
  });
}

ClusterSummary RunClusterExperiment(const ReplicaEngineFactory& make_engine,
                                    const WorkloadTrace& trace,
                                    const ClusterOptions& options) {
  PENSIEVE_CHECK_OK(options.Validate());
  return ClusterSim(make_engine, trace, options).Run();
}

}  // namespace pensieve
