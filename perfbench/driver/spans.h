// In-memory span recorder for traced benchmark runs. Spans are taken in the
// benchmark's own code around calls into a library layer; they are kept in
// memory and written once at the end as Chrome trace-event JSON, which opens
// offline in Perfetto (ui.perfetto.dev) or chrome://tracing.

#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/driver/report.h"

namespace perfbench {

struct Span {
  const char* name = "";  // string literal: the layer call, e.g. "serving.Step"
  double start_us = 0.0;  // relative to the recorder's epoch
  double end_us = 0.0;
  int32_t replica = -1;     // track; -1 = the benchmark's own thread
  int64_t request_id = -1;  // -1 when the call carries no request
};

class SpanRecorder {
 public:
  // Engine-call spans (replica tracks, hundreds of thousands per run) are
  // kept until kMaxSpans spans are held and then counted as dropped, so a
  // long traced run cannot exhaust memory; a full trace is about 45 MB. The
  // benchmark thread's few hundred spans, which come later in a run, are
  // always kept.
  static constexpr size_t kMaxSpans = 400000;

  SpanRecorder();

  double NowUs() const { return SecondsSince(epoch_) * 1e6; }

  void Add(const char* name, double start_us, double end_us, int32_t replica = -1,
           int64_t request_id = -1);

  int64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Writes {"traceEvents": [...]} with one complete ("X") event per span;
  // each replica is its own thread track. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path, const std::string& process_name) const;

 private:
  SteadyClock::time_point epoch_;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

// RAII span: records [construction, destruction) when `recorder` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int32_t replica = -1,
             int64_t request_id = -1)
      : recorder_(recorder), name_(name), replica_(replica), request_id_(request_id),
        start_us_(recorder != nullptr ? recorder->NowUs() : 0.0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->Add(name_, start_us_, recorder_->NowUs(), replica_, request_id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  const char* name_;
  int32_t replica_;
  int64_t request_id_;
  double start_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
