#include "perfbench/driver/traced_engine.h"

#include <algorithm>

namespace perfbench {

namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(SteadyClock::now().time_since_epoch())
      .count();
}

}  // namespace

TracedEngine::TracedEngine(std::unique_ptr<pensieve::Engine> inner, int32_t replica,
                           ServingCallStats* stats, SpanRecorder* spans)
    : inner_(std::move(inner)), replica_(replica), stats_(stats), spans_(spans) {}

TracedEngine::~TracedEngine() {
  const pensieve::EngineStats& s = inner_->stats();
  stats_->max_incarnation_gpu_peak_blocks =
      std::max(stats_->max_incarnation_gpu_peak_blocks, s.gpu_peak_allocated_blocks);
  if (s.kv_block_acquires != s.kv_block_releases + s.kv_blocks_live) {
    ++stats_->ledger_violations;
  }
}

void TracedEngine::Enqueue(const pensieve::Request& request, double now) {
  ScopedSpan span(spans_, "serving.Enqueue", replica_, request.request_id);
  const double start = NowUs();
  inner_->Enqueue(request, now);
  stats_->enqueue_wall_us += NowUs() - start;
  ++stats_->enqueue_calls;
}

pensieve::StepResult TracedEngine::Step(double now) {
  const double span_start = spans_ != nullptr ? spans_->NowUs() : 0.0;
  const double start = NowUs();
  pensieve::StepResult result = inner_->Step(now);
  stats_->step_wall_us.Add(NowUs() - start);
  if (spans_ != nullptr) {
    spans_->Add(result.idle ? "serving.Step(idle)" : "serving.Step", span_start,
                spans_->NowUs(), replica_);
  }
  if (result.idle) {
    ++stats_->idle_steps;
  }
  stats_->batch_tokens += result.batch_tokens;
  stats_->batch_requests += result.batch_requests;
  return result;
}

pensieve::EngineLoad TracedEngine::Load() const {
  const double start = NowUs();
  pensieve::EngineLoad load = inner_->Load();
  stats_->load_wall_us += NowUs() - start;
  ++stats_->load_calls;
  return load;
}

pensieve::MigratedKvState TracedEngine::ExportConversationState(
    int64_t conversation_id) {
  ScopedSpan span(spans_, "serving.ExportConversationState", replica_);
  const double start = NowUs();
  pensieve::MigratedKvState state = inner_->ExportConversationState(conversation_id);
  stats_->migration_wall_us += NowUs() - start;
  return state;
}

int64_t TracedEngine::ImportConversationState(int64_t conversation_id,
                                              const pensieve::MigratedKvState& state,
                                              double now) {
  ScopedSpan span(spans_, "serving.ImportConversationState", replica_);
  const double start = NowUs();
  const int64_t adopted = inner_->ImportConversationState(conversation_id, state, now);
  stats_->migration_wall_us += NowUs() - start;
  return adopted;
}

pensieve::DrainedWork TracedEngine::DrainUnfinished() {
  ScopedSpan span(spans_, "serving.DrainUnfinished", replica_);
  const double start = NowUs();
  pensieve::DrainedWork work = inner_->DrainUnfinished();
  stats_->migration_wall_us += NowUs() - start;
  return work;
}

pensieve::DrainedWork TracedEngine::DrainForRehome() {
  ScopedSpan span(spans_, "serving.DrainForRehome", replica_);
  const double start = NowUs();
  pensieve::DrainedWork work = inner_->DrainForRehome();
  stats_->migration_wall_us += NowUs() - start;
  return work;
}

}  // namespace perfbench
