// Umbrella header for the Pensieve library.
//
// Pensieve is a stateful LLM serving system (EuroSys '25): it caches the KV
// state of multi-turn conversations in a two-tier GPU/CPU cache so follow-up
// requests only process their new prompt tokens. This header exposes:
//
//  * StatefulLlmServer  — the embeddable stateful serving API (real
//    numerics over the CPU substrate).
//  * PensieveEngine / StatelessEngine — the simulated-hardware serving
//    engines used to reproduce the paper's evaluation.
//  * RunClusterExperiment — the simulator's one event loop: a router
//    (round-robin / least-loaded / session-affinity) in front of N engines
//    with KV migration over a simulated inter-replica link.
//    RunServingExperiment runs it with one replica on a caller's engine.
//  * Workload generation, eviction policies, cost models and the paged
//    two-tier KV cache they are built on.

#ifndef PENSIEVE_SRC_CORE_PENSIEVE_H_
#define PENSIEVE_SRC_CORE_PENSIEVE_H_

#include "src/cluster/cluster_driver.h"
#include "src/cluster/router.h"
#include "src/core/experiment.h"
#include "src/core/stateful_server.h"
#include "src/eviction/policy.h"
#include "src/kernels/attention.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/model_config.h"
#include "src/model/transformer.h"
#include "src/serving/driver.h"
#include "src/serving/pensieve_engine.h"
#include "src/serving/stateless_engine.h"
#include "src/sim/cost_model.h"
#include "src/tensor/ops.h"
#include "src/workload/trace.h"

#endif  // PENSIEVE_SRC_CORE_PENSIEVE_H_
