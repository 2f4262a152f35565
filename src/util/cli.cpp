#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace pimnw {
namespace {

std::string kind_name(int kind) {
  switch (kind) {
    case 0: return "int";
    case 1: return "double";
    case 2: return "bool";
    default: return "string";
  }
}

}  // namespace

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

Cli& Cli::flag(const std::string& name, std::int64_t def,
               const std::string& help) {
  PIMNW_CHECK_MSG(!entries_.count(name), "duplicate flag --" << name);
  entries_[name] = {Kind::kInt, std::to_string(def), std::to_string(def), help};
  order_.push_back(name);
  return *this;
}

Cli& Cli::flag(const std::string& name, double def, const std::string& help) {
  PIMNW_CHECK_MSG(!entries_.count(name), "duplicate flag --" << name);
  std::ostringstream os;
  os << def;
  entries_[name] = {Kind::kDouble, os.str(), os.str(), help};
  order_.push_back(name);
  return *this;
}

Cli& Cli::flag(const std::string& name, bool def, const std::string& help) {
  PIMNW_CHECK_MSG(!entries_.count(name), "duplicate flag --" << name);
  entries_[name] = {Kind::kBool, def ? "1" : "0", def ? "1" : "0", help};
  order_.push_back(name);
  return *this;
}

Cli& Cli::flag(const std::string& name, const std::string& def,
               const std::string& help) {
  PIMNW_CHECK_MSG(!entries_.count(name), "duplicate flag --" << name);
  entries_[name] = {Kind::kString, def, def, help};
  order_.push_back(name);
  return *this;
}

void Cli::fail(const std::string& error) const {
  std::cerr << program_ << ": " << error << "\n\n" << usage();
  std::exit(2);
}

void Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      fail("positional arguments not supported: " + arg);
    }
    arg = arg.substr(2);
    std::string key;
    std::string value;
    bool have_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    } else {
      key = arg;
    }
    auto it = entries_.find(key);
    if (it == entries_.end()) fail("unknown flag --" + key);
    Entry& entry = it->second;
    if (!have_value) {
      if (entry.kind == Kind::kBool) {
        value = "1";
      } else {
        if (i + 1 >= argc) fail("missing value for --" + key);
        value = argv[++i];
      }
    }
    // Validate numeric values eagerly so errors point at the flag.
    try {
      std::size_t pos = 0;
      if (entry.kind == Kind::kInt) {
        (void)std::stoll(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
      } else if (entry.kind == Kind::kDouble) {
        (void)std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
      } else if (entry.kind == Kind::kBool) {
        if (value != "0" && value != "1" && value != "true" &&
            value != "false") {
          throw std::invalid_argument(value);
        }
        value = (value == "1" || value == "true") ? "1" : "0";
      }
    } catch (const std::exception&) {
      fail("bad value for --" + key + ": " + value);
    }
    entry.value = value;
  }
}

const Cli::Entry& Cli::lookup(const std::string& name, Kind kind) const {
  auto it = entries_.find(name);
  PIMNW_CHECK_MSG(it != entries_.end(), "flag --" << name << " not registered");
  PIMNW_CHECK_MSG(it->second.kind == kind,
                  "flag --" << name << " is not of type "
                            << kind_name(static_cast<int>(kind)));
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::stoll(lookup(name, Kind::kInt).value);
}

double Cli::get_double(const std::string& name) const {
  return std::stod(lookup(name, Kind::kDouble).value);
}

bool Cli::get_bool(const std::string& name) const {
  return lookup(name, Kind::kBool).value == "1";
}

const std::string& Cli::get_string(const std::string& name) const {
  return lookup(name, Kind::kString).value;
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    os << "  --" << name << " (" << kind_name(static_cast<int>(e.kind))
       << ", default " << e.def << ")\n      " << e.help << "\n";
  }
  return os.str();
}

}  // namespace pimnw
