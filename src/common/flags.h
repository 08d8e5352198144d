// Minimal command-line flag parsing for the tools/ and bench/ binaries.
//
// Supports `--name=value` and `--name value`; unknown flags are errors so
// typos surface immediately. A bool flag takes true/false, 1/0 or on/off,
// and `--name` alone means true (so the space form `--name on` leaves a
// stray positional argument). Binaries parse through ParseFlagsOrExit, so
// every one of them accepts --threads and --help and rejects bad input the
// same way.

#ifndef PENSIEVE_SRC_COMMON_FLAGS_H_
#define PENSIEVE_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace pensieve {

class FlagParser {
 public:
  // Registers a flag with a default value and help text. Call before Parse.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  void AddInt(const std::string& name, int64_t default_value, const std::string& help);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help);
  void AddBool(const std::string& name, bool default_value, const std::string& help);

  // Parses argv. Returns an error on unknown flags or malformed values.
  Status Parse(int argc, char** argv);

  // True when `name` is registered.
  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  const std::string& GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  // Formatted help text listing every registered flag.
  std::string Help() const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };
  struct Flag {
    Kind kind;
    std::string help;
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
  };

  Status SetValue(Flag* flag, const std::string& name, const std::string& value);
  const Flag& MustFind(const std::string& name, Kind kind) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

// Prints `why` and the usage text to stderr and exits 2.
[[noreturn]] void ExitWithUsage(const FlagParser& flags, const std::string& why);

// The argument entry point of every command-line binary: registers
// --threads and --help, parses argv and sizes the global thread pool. An
// unknown flag, a malformed value or any positional argument exits 2 through
// ExitWithUsage before the binary does any work; --help prints `title` and
// the usage text to stdout and exits 0.
void ParseFlagsOrExit(FlagParser* flags, int argc, char** argv,
                      const std::string& title);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_COMMON_FLAGS_H_
