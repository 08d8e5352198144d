#include "src/workload/trace_io.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace pensieve {

namespace {

constexpr char kHeader[] = "conversation_id,turn,input_len,output_len";

bool ParseInt(const std::string& field, int64_t* out) {
  if (field.empty()) {
    return false;
  }
  char* end = nullptr;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (end != field.c_str() + field.size()) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

StatusOr<std::vector<ConversationSpec>> LoadConversationsCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument(path + ": expected header '" + kHeader + "'");
  }
  std::vector<ConversationSpec> conversations;
  std::unordered_map<int64_t, size_t> index_of;
  int64_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::stringstream row(line);
    std::string field;
    int64_t values[4];
    for (int i = 0; i < 4; ++i) {
      if (!std::getline(row, field, ',') || !ParseInt(field, &values[i])) {
        return Status::InvalidArgument(path + ": malformed line " +
                                       std::to_string(line_number));
      }
    }
    if (std::getline(row, field, ',')) {
      return Status::InvalidArgument(path + ": too many fields at line " +
                                     std::to_string(line_number));
    }
    const int64_t conv_id = values[0];
    const int64_t turn = values[1];
    if (values[2] <= 0 || values[3] <= 0) {
      return Status::InvalidArgument(path + ": non-positive length at line " +
                                     std::to_string(line_number));
    }
    auto it = index_of.find(conv_id);
    if (it == index_of.end()) {
      if (turn != 0) {
        return Status::InvalidArgument(path + ": conversation " +
                                       std::to_string(conv_id) +
                                       " does not start at turn 0 (line " +
                                       std::to_string(line_number) + ")");
      }
      index_of.emplace(conv_id, conversations.size());
      ConversationSpec spec;
      spec.conversation_id = conv_id;
      conversations.push_back(std::move(spec));
      it = index_of.find(conv_id);
    }
    ConversationSpec& spec = conversations[it->second];
    if (turn != static_cast<int64_t>(spec.turns.size())) {
      return Status::InvalidArgument(path + ": out-of-order turn for conversation " +
                                     std::to_string(conv_id) + " (line " +
                                     std::to_string(line_number) + ")");
    }
    spec.turns.push_back(TurnSpec{values[2], values[3]});
  }
  return conversations;
}

}  // namespace pensieve
