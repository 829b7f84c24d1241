// Minimal command-line argument parser for the tools and examples.
//
// Supports --key=value, --key value, and boolean --flag forms, with typed
// accessors, defaults, and a generated usage string. Unknown options, a
// flag given a value (--flag=on) and any other argument that does not
// start with "--" (-procs, a stray word) are rejected so typos fail
// loudly.
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
  /// missing values, an argument that is not an option, or --help (which
  /// also fills usage into error()).
  bool parse(int argc, const char* const* argv);

  const std::string& error() const { return error_; }

  std::string get(const std::string& name) const;
  /// Typed accessors, read by util::read_number (util/parse.h): a value
  /// that is not a whole number of the type throws util::RuntimeError
  /// naming the option. get_flag is true when the flag was given.
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  std::string usage() const;

 private:
  const Option* find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::map<std::string, std::string> values_;
  std::string error_;
};

}  // namespace pioblast::util
