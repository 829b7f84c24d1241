// Minimal command-line argument parser for the tools and examples.
//
// Supports --key=value, --key value, and boolean --flag forms, with typed
// accessors, defaults, and a generated usage string. Unknown options are
// rejected so typos fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pioblast::util {

class ArgParser {
 public:
  /// `spec` entries register options up front: name (without "--"),
  /// default value ("" = required-less flag), and help text.
  struct Option {
    std::string name;
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  explicit ArgParser(std::string program, std::string description = "");

  /// Registers a value option with a default.
  ArgParser& add(const std::string& name, const std::string& default_value,
                 const std::string& help);

  /// Registers a boolean flag (false unless present).
  ArgParser& add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false (and fills error()) on unknown options,
  /// missing values, or --help (which also fills usage into error()).
  bool parse(int argc, const char* const* argv);

  const std::string& error() const { return error_; }

  std::string get(const std::string& name) const;
  /// Typed accessors; a value that does not parse whole (or an integer out
  /// of range) throws util::RuntimeError naming the option.
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Positional arguments (everything not starting with "--").
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  const Option* find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace pioblast::util
