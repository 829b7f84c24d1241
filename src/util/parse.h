// The one reader of the text the programs take as values: every option
// value and the --fault, --check, --schedule and --pario-hints languages.
//
// Each reader takes the whole text or throws util::RuntimeError. Numbers
// go through std::from_chars, so surrounding spaces, a '+', a sign on an
// unsigned type, a value outside the type's range and a non-finite double
// are all errors. Each layer that reads a value puts its own name in
// front with named(): "--fault: rank: expects an integer in [...], got
// '4294967297'".
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace pioblast::util {

/// Calls `read()`; a RuntimeError it throws is rethrown with "`what`: " in
/// front.
template <class Read>
auto named(std::string_view what, const Read& read) -> decltype(read()) {
  try {
    return read();
  } catch (const RuntimeError& e) {
    throw RuntimeError(std::string(what) + ": " + e.what());
  }
}

/// All of `text` as a T (an integer type or double) in [lo, hi].
template <class T>
T read_number(std::string_view text, T lo = std::numeric_limits<T>::lowest(),
              T hi = std::numeric_limits<T>::max());

/// The index of the word in `words` that `text` equals.
std::size_t read_choice(std::string_view text,
                        std::span<const std::string_view> words);
inline std::size_t read_choice(std::string_view text,
                               std::initializer_list<std::string_view> words) {
  return read_choice(text, std::span(words.begin(), words.size()));
}

/// "on" is true and "off" false.
bool read_switch(std::string_view text);

/// The `sep`-separated items of `text`: none for "", never an empty one.
std::vector<std::string_view> read_list(std::string_view text,
                                        char sep = ',');

/// One entry of a mini-language's key table: `set` reads a value into the
/// struct the table fills.
template <class Target>
struct Key {
  std::string_view name;
  void (*set)(Target& target, std::string_view value);
};

/// Reads the `sep`-separated key=value fields of `text` into `target`
/// through `keys`, in order; a value's error is named after its key. With
/// `empty_keeps_default`, a field with an empty value is skipped.
template <class Target, std::size_t N>
void read_fields(std::string_view text, char sep, const Key<Target> (&keys)[N],
                 Target& target, bool empty_keeps_default = false) {
  std::array<std::string_view, N> names;
  for (std::size_t k = 0; k < N; ++k) names[k] = keys[k].name;
  for (const std::string_view field : read_list(text, sep)) {
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos)
      throw RuntimeError("expected key=value, got '" + std::string(field) +
                         "'");
    const std::string_view name = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    const std::size_t k =
        named("key", [&] { return read_choice(name, names); });
    if (!value.empty() || !empty_keeps_default)
      named(name, [&] { keys[k].set(target, value); });
  }
}

}  // namespace pioblast::util
