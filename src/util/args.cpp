#include "util/args.h"

#include <sstream>

#include "util/error.h"
#include "util/parse.h"

namespace pioblast::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add(const std::string& name, const std::string& default_value,
                          const std::string& help) {
  PIOBLAST_CHECK_MSG(find(name) == nullptr, "duplicate option --" << name);
  options_.push_back({name, default_value, help, false});
  return *this;
}

ArgParser& ArgParser::add_flag(const std::string& name, const std::string& help) {
  PIOBLAST_CHECK_MSG(find(name) == nullptr, "duplicate option --" << name);
  options_.push_back({name, "false", help, true});
  return *this;
}

const ArgParser::Option* ArgParser::find(const std::string& name) const {
  for (const Option& opt : options_)
    if (opt.name == name) return &opt;
  return nullptr;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  values_.clear();
  error_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected argument '" + arg + "'\n" + usage();
      return false;
    }
    arg.erase(0, 2);
    if (arg == "help") {
      error_ = usage();
      return false;
    }
    std::string value;
    bool has_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    const Option* opt = find(arg);
    if (opt == nullptr) {
      error_ = "unknown option --" + arg + "\n" + usage();
      return false;
    }
    if (opt->is_flag) {
      if (has_value) {
        error_ = "option --" + arg + " is a flag and takes no value, got '" +
                 argv[i] + "'\n" + usage();
        return false;
      }
      values_[arg] = "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        error_ = "option --" + arg + " needs a value\n" + usage();
        return false;
      }
      value = argv[++i];
    }
    values_[arg] = value;
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  const Option* opt = find(name);
  PIOBLAST_CHECK_MSG(opt != nullptr, "unregistered option --" << name);
  const auto it = values_.find(name);
  return it == values_.end() ? opt->default_value : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return named("--" + name,
               [&] { return read_number<std::int64_t>(get(name)); });
}

double ArgParser::get_double(const std::string& name) const {
  return named("--" + name, [&] { return read_number<double>(get(name)); });
}

bool ArgParser::get_flag(const std::string& name) const {
  return get(name) == "true";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [options]\n";
  if (!description_.empty()) os << description_ << "\n";
  os << "options:\n";
  for (const Option& opt : options_) {
    os << "  --" << opt.name;
    if (!opt.is_flag) os << "=<" << (opt.default_value.empty() ? "value" : opt.default_value) << ">";
    os << "\n      " << opt.help << "\n";
  }
  return os.str();
}

}  // namespace pioblast::util
