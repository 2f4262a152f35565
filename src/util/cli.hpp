// Tiny command-line flag parser shared by benches and examples.
//
// Supports `--key=value`, `--key value`, and boolean `--flag`. Every flag is
// registered with a default and a help string; `--help` prints usage and
// exits 0. Unknown flags are an error so typos don't silently fall back to
// defaults in experiment scripts; a command-line error prints the error and
// the usage to stderr and exits 2, so no program's main has to handle it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pimnw {

class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Register flags (call before parse()). Returns *this for chaining.
  Cli& flag(const std::string& name, std::int64_t def, const std::string& help);
  Cli& flag(const std::string& name, double def, const std::string& help);
  Cli& flag(const std::string& name, bool def, const std::string& help);
  Cli& flag(const std::string& name, const std::string& def,
            const std::string& help);

  /// Parse argv. On `--help` (or `-h`), prints usage to stdout and calls
  /// std::exit(0). On an unknown flag, a missing or malformed value or a
  /// positional argument, prints the error (naming the flag) and the usage
  /// to stderr and calls std::exit(2).
  void parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  struct Entry {
    Kind kind;
    std::string value;  // canonical textual representation
    std::string def;
    std::string help;
  };

  const Entry& lookup(const std::string& name, Kind kind) const;
  /// A command-line mistake is the caller's to fix, not a fault: print the
  /// error and the usage to stderr and exit 2.
  [[noreturn]] void fail(const std::string& error) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

}  // namespace pimnw
