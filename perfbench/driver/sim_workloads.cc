#include "perfbench/driver/sim_workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include "perfbench/driver/numeric_chat.h"
#include "perfbench/driver/spans.h"
#include "perfbench/driver/traced_engine.h"
#include "src/cluster/cluster_driver.h"
#include "src/common/stats.h"
#include "src/core/experiment.h"
#include "src/sim/cost_model.h"
#include "src/sim/hardware.h"
#include "src/workload/trace.h"

namespace perfbench {

namespace {

using pensieve::ClusterOptions;
using pensieve::ClusterSummary;
using pensieve::Engine;
using pensieve::EngineOverrides;
using pensieve::EngineStats;
using pensieve::GpuCostModel;
using pensieve::ServingSummary;
using pensieve::WorkloadTrace;

// --- Workload definitions ----------------------------------------------------

// sim-sweep: conversation rates from below the Figure 10 knee into overload,
// each rate's arrivals spanning kSweepSpanSeconds (the top point is 900
// conversations at 3 conv/s). The latency and throughput metrics are read at
// the reference rate, which runs kReferenceSubTraces independent replays
// (sub-seeds of the run's seed) whose steady windows are pooled, so its tail
// percentiles rest on enough requests. The KV cache keeps filling as a run
// goes on, so the knee moves to lower rates with longer spans; at this span
// the p90 normalized-latency limit sits between the 2.0 and 3.0 conv/s points
// and the capacity crossing is inside the sweep.
constexpr double kSweepRates[] = {1.0, 2.0, 2.5, 3.0};
constexpr double kSweepSpanSeconds = 300.0;
constexpr double kSweepReferenceRate = 1.0;
constexpr int kReferenceSubTraces = 6;
constexpr double kSweepLatencyLimitMs = 100.0;

// sim-cluster: kClusterSubTraces independent ShareGPT-profile replays
// (sub-seeds of the run's seed), each sized below the disagg+flash+dedup
// slow-down cliff and below the load where the single prefill replica
// saturates. The latency metrics
// pool their steady windows, so the tail percentiles rest on enough requests.
// The crash lands after the steady window: its re-routing and recompute work
// is simulated and counted, while the window measures the steady cluster.
constexpr int32_t kClusterReplicas = 4;
constexpr int kClusterSubTraces = 4;
constexpr int64_t kClusterConversations = 500;
constexpr double kClusterRate = 2.0;
constexpr double kClusterFailTime = 260.0;
constexpr double kClusterRecoverTime = 320.0;
constexpr int32_t kClusterFailedReplica = 2;  // a decode replica

struct Point {
  double rate = 0.0;
  WorkloadTrace trace;
  ClusterOptions cluster;
};

struct Scenario {
  std::string name;
  GpuCostModel cost_model;
  EngineOverrides overrides;
  std::vector<Point> points;
  // Points whose steady windows are pooled for the latency/throughput metrics.
  std::vector<size_t> reference_points;
  // One point per rate, in rate order, for the capacity crossing (the
  // reference rate's entry stands for its pooled replays).
  std::vector<size_t> curve_points;
  double gen_seconds = 0.0;

  int64_t TotalRequests() const {
    int64_t total = 0;
    for (const Point& p : points) {
      total += p.trace.TotalRequests();
    }
    return total;
  }
};

pensieve::TraceOptions BaseTraceOptions(uint64_t seed) {
  pensieve::TraceOptions t;
  t.mean_think_time = 60.0;
  t.seed = seed;
  return t;
}

// The conversation bodies come from a fixed synthetic ShareGPT-profile corpus
// (the role a dataset file plays), so every seed serves the same amount of
// work; the seed picks the order the conversations arrive in, the Poisson
// arrival times and the think times. With freshly sampled bodies the
// heavy-tailed length distribution alone moves the total work by about 10%
// between seeds at these trace sizes.
constexpr uint64_t kCorpusSeed = 20250331;

WorkloadTrace MakeTrace(const pensieve::DatasetProfile& profile,
                        const pensieve::TraceOptions& options) {
  pensieve::ConversationGenerator corpus(profile, kCorpusSeed);
  std::vector<pensieve::ConversationSpec> specs;
  for (int64_t i = 0; i < options.num_conversations; ++i) {
    specs.push_back(corpus.Next());
  }
  std::mt19937_64 order(options.seed * 0x9E3779B97F4A7C15ull + 1);
  std::shuffle(specs.begin(), specs.end(), order);
  return WorkloadTrace(std::move(specs), profile, options);
}

// Builds the scenario's traces and cost model. `spans` (may be null) records
// the workload-generation calls.
Scenario BuildScenario(const std::string& workload, uint64_t seed, SpanRecorder* spans) {
  const pensieve::ModelConfig model = pensieve::Opt13BConfig();
  Scenario s{workload, GpuCostModel(model, pensieve::A100Spec(model.num_gpus)),
             {}, {}, {}, {}, 0.0};
  const pensieve::DatasetProfile profile = pensieve::ShareGptProfile();
  const auto gen_start = SteadyClock::now();
  if (workload == "sim-sweep") {
    for (double rate : kSweepRates) {
      const bool reference = rate == kSweepReferenceRate;
      s.curve_points.push_back(s.points.size());
      for (int j = 0; j < (reference ? kReferenceSubTraces : 1); ++j) {
        pensieve::TraceOptions t = BaseTraceOptions(seed * kReferenceSubTraces + j);
        t.conversation_rate = rate;
        t.num_conversations = static_cast<int64_t>(rate * kSweepSpanSeconds);
        ScopedSpan span(spans, "workload.WorkloadTrace");
        s.points.push_back({rate, MakeTrace(profile, t), ClusterOptions{}});
        if (reference) {
          s.reference_points.push_back(s.points.size() - 1);
        }
      }
    }
  } else {
    ClusterOptions c;
    c.num_replicas = kClusterReplicas;
    c.router.policy = pensieve::RouterPolicy::kSessionAffinity;
    c.disagg.enabled = true;
    c.disagg.prefill_replicas = 1;
    c.disagg.min_handoff_tokens = 256;
    c.disagg.stream_layers = model.num_layers;
    c.elastic.health.enabled = true;
    c.faults = {{kClusterFailTime, kClusterFailedReplica, false},
                {kClusterRecoverTime, kClusterFailedReplica, true}};
    c.fault_seed = seed;
    s.overrides.cpu_cache_scale = 0.1;
    s.overrides.ssd_capacity_gb = 16.0;
    s.overrides.kv_quant = true;
    for (int j = 0; j < kClusterSubTraces; ++j) {
      pensieve::TraceOptions t = BaseTraceOptions(seed * kClusterSubTraces + j);
      t.conversation_rate = kClusterRate;
      t.num_conversations = kClusterConversations;
      t.num_prefix_templates = 8;
      t.prefix_len = 512;
      ScopedSpan span(spans, "workload.WorkloadTrace");
      s.points.push_back({kClusterRate, MakeTrace(profile, t), c});
      s.reference_points.push_back(s.points.size() - 1);
    }
    s.curve_points.push_back(s.reference_points.front());
  }
  s.gen_seconds = SecondsSince(gen_start);
  return s;
}

std::unique_ptr<Engine> MakeReplicaEngine(const Scenario& s, int32_t replica_id) {
  EngineOverrides o = s.overrides;
  o.fault_seed = s.overrides.fault_seed + 0x9E3779B9ull * static_cast<uint64_t>(replica_id + 1);
  return pensieve::MakeEngine(pensieve::SystemKind::kPensieve, s.cost_model, o);
}

using EngineSet = std::vector<std::vector<std::unique_ptr<Engine>>>;

// Every point's initial replica engines, built ahead of the timed region.
EngineSet BuildEngines(const Scenario& s) {
  EngineSet set(s.points.size());
  for (size_t i = 0; i < s.points.size(); ++i) {
    const int32_t n = std::max<int32_t>(1, s.points[i].cluster.num_replicas);
    for (int32_t r = 0; r < n; ++r) {
      set[i].push_back(MakeReplicaEngine(s, r));
    }
  }
  return set;
}

struct PassOutcome {
  std::vector<ClusterSummary> summaries;  // one per point
  std::vector<std::vector<pensieve::RequestOutcome>> outcomes;  // one per point
  std::vector<double> point_wall_seconds;
  double wall_seconds = 0.0;
  ServingCallStats calls;  // filled on traced passes only
};

// Simulates every point once. With `spans` set, engines are wrapped in the
// timing decorator and calls are recorded as spans.
PassOutcome RunPass(const Scenario& s, EngineSet engines, SpanRecorder* spans) {
  PassOutcome out;
  const bool traced = spans != nullptr;
  for (size_t i = 0; i < s.points.size(); ++i) {
    std::vector<std::unique_ptr<Engine>>& prebuilt = engines[i];
    const auto factory = [&](int32_t replica_id) -> std::unique_ptr<Engine> {
      std::unique_ptr<Engine> engine;
      if (static_cast<size_t>(replica_id) < prebuilt.size() && prebuilt[replica_id]) {
        engine = std::move(prebuilt[replica_id]);
      } else {
        engine = MakeReplicaEngine(s, replica_id);  // recovery incarnation
      }
      if (traced) {
        engine = std::make_unique<TracedEngine>(std::move(engine), replica_id, &out.calls,
                                                spans);
      }
      return engine;
    };
    ClusterOptions options = s.points[i].cluster;
    options.outcomes = &out.outcomes.emplace_back();
    const auto start = SteadyClock::now();
    {
      ScopedSpan span(spans, "cluster.RunClusterExperiment");
      out.summaries.push_back(
          pensieve::RunClusterExperiment(factory, s.points[i].trace, options));
    }
    out.point_wall_seconds.push_back(SecondsSince(start));
    out.wall_seconds += out.point_wall_seconds.back();
  }
  return out;
}

bool FaultIdentityHolds(const pensieve::LinkFaultStats& f) {
  return f.injected_timeouts + f.injected_partials + f.injected_corruptions ==
         f.recovered_faults + f.unrecovered_faults;
}

// Output checks on one pass; each is one attempted operation.
void CheckPass(const Scenario& s, const PassOutcome& pass, RunResult* result) {
  for (size_t i = 0; i < s.points.size(); ++i) {
    const Point& p = s.points[i];
    const ClusterSummary& cs = pass.summaries[i];
    const int64_t expected = p.trace.TotalRequests();
    const int64_t completed = cs.cluster.completed_requests;
    result->attempted += expected;
    if (completed != expected) {
      result->failed += std::max<int64_t>(0, expected - completed);
      result->correct = false;
      result->notes.push_back("rate " + std::to_string(p.rate) + ": " +
                              std::to_string(completed) + " of " +
                              std::to_string(expected) + " requests completed");
    }
    bool ledger = true;
    bool link_faults = FaultIdentityHolds(cs.nic_link_faults);
    for (const ServingSummary& r : cs.replicas) {
      const EngineStats& e = r.engine_stats;
      ledger = ledger && e.kv_block_acquires == e.kv_block_releases + e.kv_blocks_live;
      link_faults = link_faults && FaultIdentityHolds(e.link_faults) &&
                    FaultIdentityHolds(e.ssd_link_faults);
    }
    result->Check(ledger, "kv_block_acquires == kv_block_releases + kv_blocks_live per replica");
    result->Check(link_faults, "link fault identity (injected == recovered + unrecovered)");
    const pensieve::HandoffStats& h = cs.handoff;
    result->Check(h.overlap_saved_seconds >= 0.0 && h.failed_streams <= h.streams &&
                      h.streams <= h.handoff_requests,
                  "handoff identity (overlap >= 0, failed <= streams <= handoffs)");
    int64_t failures = 0;
    int64_t recoveries = 0;
    for (const pensieve::ReplicaFault& f : p.cluster.faults) {
      (f.recover ? recoveries : failures) += 1;
    }
    result->Check(cs.faults.failures == failures && cs.faults.recoveries == recoveries,
                  "scheduled replica failures and recoveries all happened");
    const pensieve::HealthStats& hs = cs.elastic.health;
    result->Check(hs.probes_sent == hs.probes_ok + hs.probes_failed,
                  "probe identity (sent == ok + failed)");
  }
}

bool SamePass(const PassOutcome& a, const PassOutcome& b, std::string* why) {
  for (size_t i = 0; i < a.summaries.size(); ++i) {
    if (!SameSimulatedMetrics(a.summaries[i].cluster, b.summaries[i].cluster, why)) {
      return false;
    }
  }
  return true;
}

// Simulated throughput where the p90 normalized-latency curve crosses the
// limit, linearly interpolated between adjacent swept rates. `curve` holds
// (throughput req/s, p90 normalized latency s/token) in rate order. When the
// limit is not crossed (sim-cluster runs a single rate) this is the highest
// throughput measured under the limit, a lower bound on capacity.
double CapacityCrossing(const std::vector<std::pair<double, double>>& curve,
                        std::vector<std::string>* notes) {
  const double limit = kSweepLatencyLimitMs / 1e3;
  if (curve.front().second > limit) {
    notes->push_back("capacity: lowest swept rate already above the latency limit");
    return curve.front().first;
  }
  for (size_t i = 0; i + 1 < curve.size(); ++i) {
    const auto [lo_tput, lo] = curve[i];
    const auto [hi_tput, hi] = curve[i + 1];
    if (lo <= limit && hi > limit) {
      return lo_tput + (limit - lo) / (hi - lo) * (hi_tput - lo_tput);
    }
  }
  notes->push_back("capacity: latency limit not crossed; reporting a lower bound");
  return curve.back().first;
}

// Latency and throughput over the pooled steady windows of the reference
// points: each point contributes the outcomes that finished inside its own
// window, and throughput is pooled completions over pooled window seconds.
struct PooledWindow {
  ServingSummary summary;
  pensieve::SampleStats latency_ms;  // arrival to finish, per request
  double tokens_per_s = 0.0;       // new prompt plus generated tokens
};

PooledWindow Pooled(const PassOutcome& pass, const std::vector<size_t>& points) {
  pensieve::MetricsCollector pooled;
  PooledWindow out;
  double window_seconds = 0.0;
  double tokens = 0.0;
  for (size_t i : points) {
    const ServingSummary& w = pass.summaries[i].cluster;
    window_seconds += w.window_end - w.window_begin;
    for (const pensieve::RequestOutcome& o : pass.outcomes[i]) {
      if (o.finish_time >= w.window_begin && o.finish_time <= w.window_end) {
        pooled.Record(o);
        out.latency_ms.Add((o.finish_time - o.request.arrival_time) * 1e3);
        tokens += static_cast<double>(o.request.new_prompt_len + o.generated_tokens);
      }
    }
  }
  out.summary = pooled.Summarize("pooled", 1e300, EngineStats{}, 0.0, 1e300);
  out.summary.throughput_rps = out.summary.window_completions / window_seconds;
  out.tokens_per_s = tokens / window_seconds;
  return out;
}

// A run times exactly kTimedPasses passes of the whole workload.
constexpr size_t kTimedPasses = 3;

// Sum over the simulated points of each point's best wall time across the
// timed passes. The simulation is deterministic, so host noise only ever adds
// time and the minimum is its steadiest estimate.
double BestWallSeconds(const std::vector<std::vector<double>>& point_walls) {
  double total = 0.0;
  for (size_t i = 0; i < point_walls.front().size(); ++i) {
    double best = point_walls.front()[i];
    for (const std::vector<double>& pass : point_walls) {
      best = std::min(best, pass[i]);
    }
    total += best;
  }
  return total;
}

double Share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// What the measured passes of a simulated workload read, plus the traced
// pass for the per-layer report.
struct SimLayerRun {
  const PassOutcome* traced = nullptr;
  PooledWindow reference;
  double capacity_rps = 0.0;
  double best_wall_s = 0.0;
};

SimLayerRun ReadPasses(const Scenario& s, const PassOutcome& first,
                       const std::vector<std::vector<double>>& point_walls,
                       RunResult* result) {
  SimLayerRun run;
  run.reference = Pooled(first, s.reference_points);
  run.best_wall_s = BestWallSeconds(point_walls);
  std::vector<std::pair<double, double>> curve;
  for (size_t i : s.curve_points) {
    const bool reference = i == s.reference_points.front();
    const ServingSummary& point =
        reference ? run.reference.summary : first.summaries[i].cluster;
    curve.emplace_back(point.throughput_rps, point.p90_normalized_latency);
  }
  run.capacity_rps = CapacityCrossing(curve, &result->notes);
  // Pooling a single point must reproduce that point's own summary.
  const ServingSummary& own = first.summaries[s.reference_points.front()].cluster;
  const ServingSummary alone = Pooled(first, {s.reference_points.front()}).summary;
  result->Check(own.window_completions == alone.window_completions &&
                    own.p90_normalized_latency == alone.p90_normalized_latency &&
                    own.p99_ttft == alone.p99_ttft && own.p99_itl == alone.p99_itl,
                "pooling one point reproduces its own summary");
  result->notes.push_back("reference window: " +
                          std::to_string(run.reference.summary.window_completions) +
                          " requests, " + std::to_string(run.reference.summary.ttft_samples) +
                          " TTFT samples");
  return run;
}

void AddEndToEnd(const Scenario& s, const SimLayerRun& run, double setup_s,
                 RunResult* result) {
  const PooledWindow& ref = run.reference;
  result->Add("setup_s", setup_s, "s");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("wall_throughput_rps", static_cast<double>(s.TotalRequests()) / run.best_wall_s,
              "req/s");
  result->Add("latency_p50_ms", ref.latency_ms.Percentile(0.5), "ms");
  result->Add("latency_p90_ms", ref.latency_ms.Percentile(0.9), "ms");
  result->Add("norm_latency_p90_ms", ref.summary.p90_normalized_latency * 1e3, "ms/token");
  result->Add("tok_per_s", ref.tokens_per_s, "tok/s");
}

// Per-layer metrics of one traced pass; engine stats are summed over the
// swept points (peaks are maxed).
void AddSimLayers(const SimLayerRun& run, RunResult* result) {
  const PassOutcome& traced = *run.traced;
  EngineStats e;
  int64_t replica_summary_peak = 0;
  int64_t summed_peak = 0;
  pensieve::HandoffStats h;
  double imbalance = 0.0;
  int64_t rerouted = 0;
  int64_t lost_kv = 0;
  int64_t probes = 0;
  for (const ClusterSummary& cs : traced.summaries) {
    e += cs.cluster.engine_stats;
    summed_peak = std::max(summed_peak, cs.cluster.engine_stats.gpu_peak_allocated_blocks);
    for (const ServingSummary& r : cs.replicas) {
      replica_summary_peak =
          std::max(replica_summary_peak, r.engine_stats.gpu_peak_allocated_blocks);
    }
    h.streams += cs.handoff.streams;
    h.overlap_saved_seconds += cs.handoff.overlap_saved_seconds;
    h.stream_wait_seconds += cs.handoff.stream_wait_seconds;
    imbalance = std::max(imbalance, cs.load_imbalance);
    rerouted += cs.faults.rerouted_requests;
    lost_kv += cs.faults.lost_kv_tokens;
    probes += cs.elastic.health.probes_sent;
  }
  const ServingCallStats& c = traced.calls;
  const double wall_us = traced.wall_seconds * 1e6;
  const double steps = static_cast<double>(c.step_wall_us.count());
  const double active_steps = std::max(1.0, steps - static_cast<double>(c.idle_steps));
  result->Add("serving.step_calls", steps, "count");
  result->Add("serving.step_wall_us_p50", c.step_wall_us.Percentile(0.5), "us");
  result->Add("serving.step_wall_us_p99", c.step_wall_us.Percentile(0.99), "us");
  result->Add("serving.step_wall_share", Share(c.StepWallUs(), wall_us), "ratio");
  result->Add("serving.idle_step_share", Share(c.idle_steps, steps), "ratio");
  result->Add("serving.batch_tokens_mean", c.batch_tokens / active_steps, "tokens");
  result->Add("serving.batch_requests_mean", c.batch_requests / active_steps, "requests");
  result->Add("serving.enqueue_wall_us_mean", Share(c.enqueue_wall_us, c.enqueue_calls), "us");
  result->Add("serving.load_calls", static_cast<double>(c.load_calls), "count");
  result->Add("serving.migration_wall_share", Share(c.migration_wall_us, wall_us), "ratio");

  result->Add("scheduler.aot_swap_out_tokens", e.aot_swap_out_tokens, "tokens");
  result->Add("scheduler.forced_swap_out_tokens", e.forced_swap_out_tokens, "tokens");
  result->Add("scheduler.dropped_tokens", e.dropped_tokens, "tokens");
  result->Add("scheduler.suspensions", e.suspensions, "count");
  result->Add("scheduler.preemptions", e.preemptions, "count");

  result->Add("kvcache.hit_rate", e.CacheHitRate(), "ratio");
  result->Add("kvcache.cpu_hit_rate", e.CpuCacheHitRate(), "ratio");
  result->Add("kvcache.recomputed_tokens", e.recomputed_history_tokens, "tokens");
  // The per-incarnation maximum the decorator saw. Both summary values add
  // high-water marks: cluster.engine_stats across replicas, and each
  // replica's summary across its crash incarnations. They go in the notes.
  result->Add("kvcache.gpu_peak_blocks", c.max_incarnation_gpu_peak_blocks, "blocks");
  if (!traced.summaries.empty()) {
    result->notes.push_back(
        "gpu_peak_blocks: max per incarnation " +
        std::to_string(c.max_incarnation_gpu_peak_blocks) + ", max per replica summary " +
        std::to_string(replica_summary_peak) + ", summed cluster.engine_stats " +
        std::to_string(summed_peak));
  }
  result->Add("kvcache.ledger_live_blocks", e.kv_blocks_live, "blocks");
  result->Add("kvcache.ssd_hit_rate", e.SsdCacheHitRate(), "ratio");
  result->Add("kvcache.ssd_write_amp", e.SsdWriteAmplification(), "ratio");
  result->Add("kvcache.dedup_hit_requests", e.dedup_hit_requests, "count");
  result->Add("kvcache.reused_shared_tokens", e.reused_shared_tokens, "tokens");

  result->Add("sim.wall_s", run.best_wall_s, "s");
  result->Add("sim.capacity_rps", run.capacity_rps, "req/s");
  result->Add("sim.throughput_rps", run.reference.summary.throughput_rps, "req/s");
  result->Add("sim.ttft_p99_ms", run.reference.summary.p99_ttft * 1e3, "ms");
  result->Add("sim.itl_p99_ms", run.reference.summary.p99_itl * 1e3, "ms");
  result->Add("sim.busy_s", e.busy_seconds, "s");
  result->Add("sim.recompute_s", e.recompute_seconds, "s");
  result->Add("sim.restore_stall_s", e.restore_stall_seconds, "s");
  result->Add("sim.step_ms_mean", Share(e.busy_seconds * 1e3, e.steps), "ms");
  result->Add("sim.handoff_streams", h.streams, "count");
  result->Add("sim.handoff_overlap_s", h.overlap_saved_seconds, "s");
  result->Add("sim.handoff_wait_s", h.stream_wait_seconds, "s");

  result->Add("cluster.self_wall_share", Share(wall_us - c.EngineCallWallUs(), wall_us),
              "ratio");
  result->Add("cluster.load_imbalance", imbalance, "ratio");
  result->Add("cluster.rerouted_requests", rerouted, "count");
  result->Add("cluster.lost_kv_tokens", lost_kv, "tokens");
  result->Add("cluster.probes_sent", probes, "count");
  result->Check(c.ledger_violations == 0,
                "allocator ledger balanced in every engine incarnation");
}

}  // namespace

RunResult RunSimWorkload(const RunOptions& options) {
  RunResult result;
  std::unique_ptr<SpanRecorder> spans;
  if (options.trace) {
    spans = std::make_unique<SpanRecorder>();
  }
  // Set-up, repeated: the simulated workload's traces and engines, and the
  // numeric pass's server. The first repetition is timed from process start
  // and the last one's calls are recorded as spans. A traced run also times
  // the numeric server's kernel-timed eviction profile once per repetition,
  // outside setup_s.
  constexpr int kSetupReps = 5;
  pensieve::SampleStats setup_s;
  pensieve::SampleStats gen_s;
  pensieve::SampleStats profile_s;
  std::unique_ptr<Scenario> scenario;
  EngineSet engines;
  std::unique_ptr<NumericChat> chat;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous repetition before rebuilding.
    scenario.reset();
    engines.clear();
    chat.reset();
    SpanRecorder* rep_spans = rep + 1 == kSetupReps ? spans.get() : nullptr;
    const auto start = rep == 0 ? options.process_start : SteadyClock::now();
    scenario = std::make_unique<Scenario>(BuildScenario(options.workload, options.seed, rep_spans));
    engines = BuildEngines(*scenario);
    chat = std::make_unique<NumericChat>(options.seed, rep_spans);
    setup_s.Add(SecondsSince(start));
    gen_s.Add(scenario->gen_seconds);
    if (options.trace) {
      profile_s.Add(TimeEvictionProfile(rep_spans));
    }
  }
  const Scenario& s = *scenario;

  // Measured passes: the whole workload kTimedPasses times. Only the first
  // pass's outcomes are kept; later passes must reproduce it exactly.
  std::vector<std::vector<double>> point_walls;
  std::optional<PassOutcome> first_pass;
  std::string pass_walls = "pass wall s:";
  const auto measure_start = SteadyClock::now();
  for (size_t i = 0; i < kTimedPasses; ++i) {
    PassOutcome pass = RunPass(s, std::move(engines), nullptr);
    point_walls.push_back(pass.point_wall_seconds);
    pass_walls += " " + std::to_string(pass.wall_seconds);
    CheckPass(s, pass, &result);
    if (first_pass) {
      std::string why;
      result.Check(SamePass(*first_pass, pass, &why), "passes identical: " + why);
    } else {
      first_pass = std::move(pass);
    }
    engines = BuildEngines(s);
  }
  const PassOutcome& first = *first_pass;
  result.notes.push_back(pass_walls);
  SimLayerRun run = ReadPasses(s, first, point_walls, &result);

  if (!options.trace) {
    AddEndToEnd(s, run, setup_s.Percentile(0.5), &result);
  } else {
    // Traced pass: same inputs, decorated engines, spans in memory. Its wall
    // time is compared with the last (warm) untraced pass.
    PassOutcome traced = RunPass(s, std::move(engines), spans.get());
    CheckPass(s, traced, &result);
    std::string why;
    result.Check(SamePass(first, traced, &why),
                 "traced run's simulated metrics equal the untraced run's: " + why);
    const double untraced = std::accumulate(point_walls.back().begin(),
                                            point_walls.back().end(), 0.0);
    const double overhead = traced.wall_seconds / untraced - 1.0;
    result.Add("bench.trace_overhead_share", overhead, "ratio");
    result.Add("eviction.profile_s", profile_s.Percentile(0.5), "s");
    result.Add("workload.gen_s", gen_s.Percentile(0.5), "s");
    result.Add("workload.requests", s.TotalRequests(), "count");
    run.traced = &traced;
    AddSimLayers(run, &result);
  }
  chat->Run(spans.get(), &result);
  result.notes.push_back("wall s after set-up: " +
                         std::to_string(SecondsSince(measure_start)));
  if (options.trace) {
    result.notes.push_back("spans recorded " + std::to_string(spans->spans().size()) +
                           ", dropped " + std::to_string(spans->dropped()));
    result.Check(spans->WriteChromeTrace(options.trace_path, "perfbench " + options.workload),
                 "trace written to " + options.trace_path);
  }
  return result;
}

bool SameSimulatedMetrics(const ServingSummary& a, const ServingSummary& b,
                          std::string* why) {
  const auto differ = [&](const char* field) {
    if (why != nullptr) {
      *why = field;
    }
    return false;
  };
  if (a.completed_requests != b.completed_requests) return differ("completed_requests");
  if (a.makespan != b.makespan) return differ("makespan");
  if (a.window_completions != b.window_completions) return differ("window_completions");
  if (a.throughput_rps != b.throughput_rps) return differ("throughput_rps");
  if (a.token_throughput != b.token_throughput) return differ("token_throughput");
  if (a.mean_normalized_latency != b.mean_normalized_latency) return differ("mean_norm_latency");
  if (a.p90_normalized_latency != b.p90_normalized_latency) return differ("p90_norm_latency");
  if (a.p99_normalized_latency != b.p99_normalized_latency) return differ("p99_norm_latency");
  if (a.p99_ttft != b.p99_ttft) return differ("p99_ttft");
  if (a.p99_itl != b.p99_itl) return differ("p99_itl");
  const EngineStats& x = a.engine_stats;
  const EngineStats& y = b.engine_stats;
  if (x.steps != y.steps) return differ("steps");
  if (x.generated_tokens != y.generated_tokens) return differ("generated_tokens");
  if (x.prefill_tokens != y.prefill_tokens) return differ("prefill_tokens");
  if (x.recomputed_history_tokens != y.recomputed_history_tokens) return differ("recomputed");
  if (x.busy_seconds != y.busy_seconds) return differ("busy_seconds");
  if (x.kv_block_acquires != y.kv_block_acquires) return differ("kv_block_acquires");
  if (why != nullptr) {
    why->clear();
  }
  return true;
}

}  // namespace perfbench
