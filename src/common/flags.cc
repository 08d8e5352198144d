#include "src/common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"

namespace pensieve {

void FlagParser::AddString(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  Flag flag;
  flag.kind = Kind::kString;
  flag.help = help;
  flag.string_value = default_value;
  flags_[name] = std::move(flag);
}

void FlagParser::AddInt(const std::string& name, int64_t default_value,
                        const std::string& help) {
  Flag flag;
  flag.kind = Kind::kInt;
  flag.help = help;
  flag.int_value = default_value;
  flags_[name] = std::move(flag);
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  Flag flag;
  flag.kind = Kind::kDouble;
  flag.help = help;
  flag.double_value = default_value;
  flags_[name] = std::move(flag);
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  Flag flag;
  flag.kind = Kind::kBool;
  flag.help = help;
  flag.bool_value = default_value;
  flags_[name] = std::move(flag);
}

Status FlagParser::SetValue(Flag* flag, const std::string& name,
                            const std::string& value) {
  char* end = nullptr;
  switch (flag->kind) {
    case Kind::kString:
      flag->string_value = value;
      return Status::Ok();
    case Kind::kInt: {
      const long long v = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                       value + "'");
      }
      flag->int_value = v;
      return Status::Ok();
    }
    case Kind::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name + " expects a number, got '" +
                                       value + "'");
      }
      flag->double_value = v;
      return Status::Ok();
    }
    case Kind::kBool:
      if (value == "true" || value == "1" || value == "on") {
        flag->bool_value = true;
      } else if (value == "false" || value == "0" || value == "off") {
        flag->bool_value = false;
      } else {
        return Status::InvalidArgument("--" + name +
                                       " expects true/false or on/off, got '" +
                                       value + "'");
      }
      return Status::Ok();
  }
  return Status::Internal("unreachable");
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!have_value) {
      if (it->second.kind == Kind::kBool) {
        // `--flag` alone means true.
        it->second.bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("--" + name + " is missing a value");
      }
      value = argv[++i];
    }
    Status status = SetValue(&it->second, name, value);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

const FlagParser::Flag& FlagParser::MustFind(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  PENSIEVE_CHECK(it != flags_.end()) << "unregistered flag --" << name;
  PENSIEVE_CHECK(it->second.kind == kind) << "type mismatch for flag --" << name;
  return it->second;
}

const std::string& FlagParser::GetString(const std::string& name) const {
  return MustFind(name, Kind::kString).string_value;
}

int64_t FlagParser::GetInt(const std::string& name) const {
  return MustFind(name, Kind::kInt).int_value;
}

double FlagParser::GetDouble(const std::string& name) const {
  return MustFind(name, Kind::kDouble).double_value;
}

bool FlagParser::GetBool(const std::string& name) const {
  return MustFind(name, Kind::kBool).bool_value;
}

std::string FlagParser::Help() const {
  std::ostringstream os;
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    switch (flag.kind) {
      case Kind::kString:
        os << "=<string>  (default: \"" << flag.string_value << "\")";
        break;
      case Kind::kInt:
        os << "=<int>  (default: " << flag.int_value << ")";
        break;
      case Kind::kDouble:
        os << "=<number>  (default: " << flag.double_value << ")";
        break;
      case Kind::kBool:
        os << "=<bool>  (default: " << (flag.bool_value ? "true" : "false") << ")";
        break;
    }
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

void ExitWithUsage(const FlagParser& flags, const std::string& why) {
  std::fprintf(stderr, "%s\n\nflags:\n%s", why.c_str(), flags.Help().c_str());
  std::exit(2);
}

void ParseFlagsOrExit(FlagParser* flags, int argc, char** argv,
                      const std::string& title) {
  flags->AddInt("threads", 0,
                "worker threads for the CPU kernels/GEMMs; 0 = PENSIEVE_THREADS "
                "env var, else hardware concurrency");
  flags->AddBool("help", false, "print usage");
  const Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    ExitWithUsage(*flags, status.ToString());
  }
  if (!flags->positional().empty()) {
    ExitWithUsage(*flags, "unexpected argument '" + flags->positional().front() + "'");
  }
  if (flags->GetBool("help")) {
    std::printf("%s\n\nflags:\n%s", title.c_str(), flags->Help().c_str());
    std::exit(0);
  }
  ThreadPool::SetGlobalThreads(static_cast<int>(flags->GetInt("threads")));
}

}  // namespace pensieve
