#include "perfbench/driver/spans.h"

#include <cstdio>
#include <filesystem>
#include <set>

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(SteadyClock::now()) { spans_.reserve(1 << 16); }

void SpanRecorder::Add(const char* name, double start_us, double end_us,
                       int32_t replica, int64_t request_id) {
  if (replica >= 0 && spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, start_us, end_us, replica, request_id});
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& process_name) const {
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ec);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Track ids: the benchmark thread is tid 0, replica r is tid r + 1.
  std::set<int32_t> tracks;
  for (const Span& s : spans_) {
    tracks.insert(s.replica);
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_spans\": %lld},\n"
                  "\"traceEvents\": [\n",
               static_cast<long long>(dropped_));
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
               "\"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (int32_t track : tracks) {
    if (track < 0) {
      std::fprintf(f,
                   ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
                   "\"args\": {\"name\": \"benchmark\"}}");
    } else {
      std::fprintf(f,
                   ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"name\": \"replica %d\"}}",
                   track + 1, track);
    }
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"replica\": %d",
                 s.name, s.replica + 1, s.start_us, s.end_us - s.start_us, s.replica);
    if (s.request_id >= 0) {
      std::fprintf(f, ", \"request_id\": %lld", static_cast<long long>(s.request_id));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
