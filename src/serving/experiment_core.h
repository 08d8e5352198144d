// Experiment core of the serving driver.
//
// The cluster driver (src/cluster/cluster_driver.cc), which also runs every
// single-engine experiment as one replica, is a thin client of three pieces
// that live here:
//
//  * ArrivalProcess — seeds every conversation's first turn into an
//    EventQueue, builds the Request for a popped arrival event, and chains
//    the conversation's next turn after the engine finishes the previous one
//    plus the sampled user think time (causal dependency, paper §6.1).
//  * ComputeSteadyStateWindow — the steady-state measurement window both
//    summarize paths use: skip the warm-up (first 10% of the conversation
//    arrival span) and cut off at the end of the arrival process so a few
//    long think-time chains don't dominate the throughput denominator. A
//    single-burst trace (arrival span 0) falls back to [0, last_finish].
//  * The trace's dense-conversation-id invariant is validated once at trace
//    load (WorkloadTrace); the chain here indexes by id without re-checking.

#ifndef PENSIEVE_SRC_SERVING_EXPERIMENT_CORE_H_
#define PENSIEVE_SRC_SERVING_EXPERIMENT_CORE_H_

#include <cstdint>

#include "src/scheduler/request.h"
#include "src/sim/event_loop.h"
#include "src/workload/trace.h"

namespace pensieve {

// Latest first arrival across the trace's conversations (the length of the
// open-loop arrival process).
double ArrivalSpan(const WorkloadTrace& trace);

struct SteadyStateWindow {
  double begin = 0.0;
  double end = 0.0;
};

// [0.1 * span, span] normally; [0, last_finish] when the span is zero
// (single-burst traces where every conversation arrives at t = 0).
SteadyStateWindow ComputeSteadyStateWindow(double arrival_span,
                                           double last_finish);

// Arrival/think-time chain plus request builder, shared verbatim by both
// drivers so their request streams are identical by construction.
class ArrivalProcess {
 public:
  // Seeds one kArrival event per conversation (its first turn) into
  // `events`. Both pointers must outlive this object.
  ArrivalProcess(const WorkloadTrace& trace, EventQueue* events);

  // Builds the Request for a popped kArrival event, assigning the next
  // dense request id.
  Request BuildRequest(const SimEvent& arrival);

  // Chains the conversation's next turn (if any) after the user think time:
  // pushes a kArrival event at finish_time + think into the queue.
  void OnRequestFinished(const RequestOutcome& outcome);

  int64_t requests_built() const { return next_request_id_; }

 private:
  const WorkloadTrace& trace_;
  EventQueue* events_;
  int64_t next_request_id_ = 0;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SERVING_EXPERIMENT_CORE_H_
