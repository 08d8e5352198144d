#include "src/common/logging.h"

#include <cstring>

namespace pensieve {

namespace {

const char* SeverityTag(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kDebug:
      return "D";
    case LogSeverity::kInfo:
      return "I";
    case LogSeverity::kWarning:
      return "W";
    case LogSeverity::kError:
      return "E";
    case LogSeverity::kFatal:
      return "F";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

LogMessage::LogMessage(LogSeverity severity, const char* file, int line)
    : severity_(severity) {
  stream_ << "[" << SeverityTag(severity) << " " << Basename(file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (severity_ >= kMinLogSeverity) {
    stream_ << "\n";
    std::cerr << stream_.str();
    std::cerr.flush();
  }
  if (severity_ == LogSeverity::kFatal) {
    std::abort();
  }
}

}  // namespace pensieve
