#include "pario/env.h"

#include <cctype>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/parse.h"

namespace pioblast::pario {

namespace {

/// A byte count: a whole number with an optional binary k/m/g suffix
/// ("256k", "1m") that fits in 64 bits and is at least `min`.
std::uint64_t read_size(std::string_view value, std::uint64_t min = 0) {
  const unsigned char last = value.empty() ? 0 : value.back();
  const int unit = std::tolower(last);
  const int shift = unit == 'k' ? 10 : unit == 'm' ? 20 : unit == 'g' ? 30 : 0;
  if (shift != 0) value.remove_suffix(1);
  const std::uint64_t n = util::read_number<std::uint64_t>(
      value, 0, std::numeric_limits<std::uint64_t>::max() >> shift);
  if ((n << shift) < min)
    throw util::RuntimeError("must be at least " + std::to_string(min) +
                             " bytes, got " + std::to_string(n << shift));
  return n << shift;
}

/// ds_read's values, in SieveMode's order.
constexpr std::string_view kSieveModes[] = {"auto", "enable", "disable"};

constexpr util::Key<Hints> kHintKeys[] = {
    {"cb_nodes",
     [](auto& h, auto v) { h.cb_nodes = util::read_number<int>(v, 1); }},
    {"cb_buffer_size",
     [](auto& h, auto v) { h.cb_buffer_size = read_size(v); }},
    {"ds_read",
     [](auto& h, auto v) {
       h.ds_read = static_cast<SieveMode>(util::read_choice(v, kSieveModes));
     }},
    {"ds_buffer_size",
     [](auto& h, auto v) { h.ds_buffer_size = read_size(v, 1); }},
    {"ds_density",
     [](auto& h, auto v) { h.ds_density = util::read_number(v, 0.0, 1.0); }},
    {"list", [](auto& h, auto v) { h.list_io = util::read_switch(v); }},
};

/// Renders a byte count back with the largest exact binary suffix.
std::string render_size(std::uint64_t bytes) {
  const char* suffix = "";
  if (bytes != 0 && bytes % (1ull << 30) == 0) {
    bytes >>= 30;
    suffix = "g";
  } else if (bytes != 0 && bytes % (1ull << 20) == 0) {
    bytes >>= 20;
    suffix = "m";
  } else if (bytes != 0 && bytes % (1ull << 10) == 0) {
    bytes >>= 10;
    suffix = "k";
  }
  return std::to_string(bytes) + suffix;
}

}  // namespace

Hints Hints::parse(std::string_view spec) {
  Hints h;
  util::read_fields(spec, ',', kHintKeys, h);
  return h;
}

std::string Hints::describe() const {
  std::ostringstream os;
  os << "cb_nodes=" << cb_nodes
     << ",cb_buffer_size=" << render_size(cb_buffer_size)
     << ",ds_read=" << kSieveModes[static_cast<int>(ds_read)]
     << ",ds_buffer_size=" << render_size(ds_buffer_size)
     << ",ds_density=" << ds_density
     << ",list=" << (list_io ? "on" : "off");
  return os.str();
}

}  // namespace pioblast::pario
