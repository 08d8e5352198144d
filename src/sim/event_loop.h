// Typed discrete-event queue of the serving experiment driver.
//
// The cluster driver (which also runs every single-engine experiment, as one
// replica) advances virtual time by repeatedly asking "what happens next?" —
// a workload arrival, a replica fault, or a replica scheduler step. The first two are explicit events held
// in this queue; replica steps are implicit (each replica reports its own
// next-event time) and always rank *after* queued events on time ties, so
// routers and engines observe the freshest queue state before computing.
//
// Tie-break order at equal times: arrival < fail < recover < (replica step),
// then FIFO by push order. The order is total and deterministic, which is
// what makes replayed experiments reproducible bit for bit.

#ifndef PENSIEVE_SRC_SIM_EVENT_LOOP_H_
#define PENSIEVE_SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

namespace pensieve {

// Enumerator values define the tie-break priority at equal times (lower
// pops first).
enum class SimEventKind : int32_t {
  kArrival = 0,        // a conversation turn reaches the front door
  kReplicaFail = 1,    // a replica crashes: KV lost, work re-routed
  kReplicaRecover = 2, // a failed replica rejoins, empty
  // A prefill->decode KV handoff stream finishes: the decode replica can
  // admit the continuation. Ranks after fail/recover so a stream landing at
  // the exact instant its destination dies (or rejoins) observes the final
  // replica state.
  kHandoffArrival = 3,
  // Recurring control-plane timers (elastic replica set, DESIGN.md §14).
  // They rank after every workload/fault event at the same instant so the
  // health monitor and autoscaler observe the settled cluster state.
  kHealthProbe = 4,   // one probe round across the replica set
  kAutoscale = 5,     // one autoscaler evaluation
};

// Number of distinct SimEventKind values (for per-kind bookkeeping).
inline constexpr int32_t kNumSimEventKinds = 6;

struct SimEvent {
  double time = 0.0;
  SimEventKind kind = SimEventKind::kArrival;
  // Payload: arrivals carry (conversation index, turn index); fault events
  // carry the replica id in `id`.
  int64_t id = 0;
  int32_t turn = 0;
  // Assigned by EventQueue::Push; FIFO among equal (time, kind).
  int64_t seq = 0;
};

class EventQueue {
 public:
  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Time of the next event, +inf when empty (so callers can min() it
  // against replica next-event times without branching).
  double NextTime() const;

  const SimEvent& Top() const { return heap_.top(); }

  void Push(SimEvent event) {
    event.seq = next_seq_++;
    ++kind_counts_[static_cast<size_t>(event.kind)];
    heap_.push(event);
  }

  SimEvent Pop() {
    SimEvent event = heap_.top();
    heap_.pop();
    --kind_counts_[static_cast<size_t>(event.kind)];
    return event;
  }

  // Pending events of one kind. Recurring timer events (probe/autoscale)
  // use this to decide whether re-arming themselves could still matter: when
  // every remaining event is a timer and all replicas are quiescent, the
  // timer lets itself lapse so the run can terminate.
  int64_t PendingOfKind(SimEventKind kind) const {
    return kind_counts_[static_cast<size_t>(kind)];
  }

 private:
  struct Later {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      if (a.kind != b.kind) {
        return static_cast<int32_t>(a.kind) > static_cast<int32_t>(b.kind);
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<SimEvent, std::vector<SimEvent>, Later> heap_;
  int64_t next_seq_ = 0;
  std::array<int64_t, kNumSimEventKinds> kind_counts_{};
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SIM_EVENT_LOOP_H_
