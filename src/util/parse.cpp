#include "util/parse.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <type_traits>

namespace pioblast::util {

template <class T>
T read_number(std::string_view text, T lo, T hi) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  // NaN fails the bounds test; infinity lies outside every finite range.
  if (ec == std::errc{} && stop == end && value >= lo && value <= hi &&
      std::isfinite(value))
    return value;
  std::ostringstream os;
  if constexpr (std::is_integral_v<T>)
    os << "expects an integer in [" << +lo << ", " << +hi << "]";
  else if (lo == std::numeric_limits<T>::lowest() &&
           hi == std::numeric_limits<T>::max())
    os << "expects a finite number";
  else
    os << "expects a number in [" << lo << ", " << hi << "]";
  os << ", got '" << text << "'";
  throw RuntimeError(os.str());
}

// The types the programs read.
template std::int8_t read_number(std::string_view, std::int8_t, std::int8_t);
template std::int16_t read_number(std::string_view, std::int16_t, std::int16_t);
template std::int32_t read_number(std::string_view, std::int32_t, std::int32_t);
template std::int64_t read_number(std::string_view, std::int64_t, std::int64_t);
template std::uint8_t read_number(std::string_view, std::uint8_t, std::uint8_t);
template std::uint16_t read_number(std::string_view, std::uint16_t,
                                   std::uint16_t);
template std::uint32_t read_number(std::string_view, std::uint32_t,
                                   std::uint32_t);
template std::uint64_t read_number(std::string_view, std::uint64_t,
                                   std::uint64_t);
template double read_number(std::string_view, double, double);

std::size_t read_choice(std::string_view text,
                        std::span<const std::string_view> words) {
  const auto it = std::find(words.begin(), words.end(), text);
  if (it != words.end()) return static_cast<std::size_t>(it - words.begin());
  std::string want;
  for (const std::string_view w : words)
    want.append(want.empty() ? "" : " | ").append(w);
  throw RuntimeError("expects " + want + ", got '" + std::string(text) + "'");
}

bool read_switch(std::string_view text) {
  return read_choice(text, {"off", "on"}) == 1;
}

std::vector<std::string_view> read_list(std::string_view text, char sep) {
  std::vector<std::string_view> items;
  for (std::size_t at = 0; !text.empty() && at <= text.size();
       at += items.back().size() + 1) {
    items.push_back(
        text.substr(at, std::min(text.find(sep, at), text.size()) - at));
    if (items.back().empty())
      throw RuntimeError("empty item in '" + std::string(text) + "'");
  }
  return items;
}

}  // namespace pioblast::util
