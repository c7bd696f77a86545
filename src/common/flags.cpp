#include "common/flags.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace whatsup {

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    if (arg == "help") {
      help_requested_ = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

const std::string* Flags::lookup(const std::string& name) {
  consumed_.push_back(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def,
                            const std::string& help) {
  registered_[name] = {std::to_string(def), help};
  const std::string* v = lookup(name);
  return v != nullptr ? std::stoll(*v) : def;
}

double Flags::get_double(const std::string& name, double def, const std::string& help) {
  registered_[name] = {std::to_string(def), help};
  const std::string* v = lookup(name);
  return v != nullptr ? std::stod(*v) : def;
}

std::string Flags::get_string(const std::string& name, const std::string& def,
                              const std::string& help) {
  registered_[name] = {def, help};
  const std::string* v = lookup(name);
  return v != nullptr ? *v : def;
}

bool Flags::get_bool(const std::string& name, bool def, const std::string& help) {
  registered_[name] = {def ? "true" : "false", help};
  const std::string* v = lookup(name);
  if (v == nullptr) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

bool Flags::maybe_print_help(std::ostream& os) const {
  if (!help_requested_) return false;
  os << "Usage: " << program_ << " [--flag=value ...]\n";
  for (const auto& [name, reg] : registered_) {
    os << "  --" << name << " (default: " << reg.default_value << ")";
    if (!reg.help.empty()) os << "  " << reg.help;
    os << '\n';
  }
  return true;
}

std::vector<std::string> Flags::unknown_flags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (std::find(consumed_.begin(), consumed_.end(), name) == consumed_.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

bool Flags::reject_unknown(std::ostream& os) const {
  const std::vector<std::string> unknown = unknown_flags();
  for (const std::string& name : unknown) os << "error: unknown flag --" << name << '\n';
  return !unknown.empty();
}

}  // namespace whatsup
