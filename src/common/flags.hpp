// Minimal command-line flag parser for the bench/example binaries:
// supports --name=value and --name value; every lookup registers the flag
// for --help output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace whatsup {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const std::string& help = {});
  double get_double(const std::string& name, double def, const std::string& help = {});
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help = {});
  bool get_bool(const std::string& name, bool def, const std::string& help = {});

  bool help_requested() const { return help_requested_; }
  // Prints registered flags with defaults; returns true if --help was given
  // (callers typically exit in that case).
  bool maybe_print_help(std::ostream& os) const;
  // Flags supplied on the command line that were never looked up.
  std::vector<std::string> unknown_flags() const;
  // Prints "error: unknown flag --x" for each of unknown_flags(); returns
  // true if there was any (callers exit non-zero). Call after every lookup.
  bool reject_unknown(std::ostream& os) const;

 private:
  struct Registered {
    std::string default_value;
    std::string help;
  };
  std::map<std::string, std::string> values_;
  std::map<std::string, Registered> registered_;
  mutable std::vector<std::string> consumed_;
  std::string program_;
  bool help_requested_ = false;

  const std::string* lookup(const std::string& name);
};

}  // namespace whatsup
