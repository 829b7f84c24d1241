#include "pario/env.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/error.h"

namespace pioblast::pario {

namespace {

[[noreturn]] void bad_hint(const std::string& spec, const std::string& why) {
  throw util::RuntimeError("bad --pario-hints \"" + spec + "\": " + why);
}

/// Parses a byte size with optional binary k/m/g suffix ("256k", "1m").
/// A sign, or a size that does not fit in 64 bits, is rejected.
std::uint64_t parse_size(const std::string& spec, const std::string& value) {
  if (value.empty()) bad_hint(spec, "empty size value");
  const char* const end = value.data() + value.size();
  std::uint64_t n = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec == std::errc::result_out_of_range)
    bad_hint(spec, "size \"" + value + "\" does not fit in 64 bits");
  if (ec != std::errc{} || end - ptr > 1)
    bad_hint(spec, "malformed size \"" + value + "\"");
  int shift = 0;
  if (ptr != end) {
    switch (std::tolower(static_cast<unsigned char>(*ptr))) {
      case 'k': shift = 10; break;
      case 'm': shift = 20; break;
      case 'g': shift = 30; break;
      default: bad_hint(spec, "unknown size suffix in \"" + value + "\"");
    }
  }
  if (n > std::numeric_limits<std::uint64_t>::max() >> shift)
    bad_hint(spec, "size \"" + value + "\" does not fit in 64 bits");
  return n << shift;
}

int parse_int(const std::string& spec, const std::string& value) {
  std::size_t pos = 0;
  int n = 0;
  try {
    n = std::stoi(value, &pos);
  } catch (const std::exception&) {
    bad_hint(spec, "malformed integer \"" + value + "\"");
  }
  if (pos != value.size()) bad_hint(spec, "malformed integer \"" + value + "\"");
  return n;
}

double parse_fraction(const std::string& spec, const std::string& value) {
  std::size_t pos = 0;
  double x = 0;
  try {
    x = std::stod(value, &pos);
  } catch (const std::exception&) {
    bad_hint(spec, "malformed number \"" + value + "\"");
  }
  if (pos != value.size() || x < 0.0 || x > 1.0)
    bad_hint(spec, "ds_density must be a fraction in [0,1], got \"" + value + "\"");
  return x;
}

bool parse_bool(const std::string& spec, const std::string& value) {
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  bad_hint(spec, "expected on/off, got \"" + value + "\"");
}

SieveMode parse_sieve_mode(const std::string& spec, const std::string& value) {
  if (value == "auto") return SieveMode::kAuto;
  if (value == "enable" || value == "on") return SieveMode::kEnable;
  if (value == "disable" || value == "off") return SieveMode::kDisable;
  bad_hint(spec, "ds_read must be auto/enable/disable, got \"" + value + "\"");
}

const char* sieve_mode_name(SieveMode m) {
  switch (m) {
    case SieveMode::kAuto: return "auto";
    case SieveMode::kEnable: return "enable";
    case SieveMode::kDisable: return "disable";
  }
  return "auto";
}

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

Hints Hints::parse(const std::string& spec) {
  Hints h;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos)
      bad_hint(spec, "expected key=value, got \"" + item + "\"");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "cb_nodes") {
      h.cb_nodes = parse_int(spec, value);
      if (h.cb_nodes <= 0) bad_hint(spec, "cb_nodes must be positive");
    } else if (key == "cb_buffer_size") {
      h.cb_buffer_size = parse_size(spec, value);
    } else if (key == "ds_read") {
      h.ds_read = parse_sieve_mode(spec, value);
    } else if (key == "ds_buffer_size") {
      h.ds_buffer_size = parse_size(spec, value);
      if (h.ds_buffer_size == 0) bad_hint(spec, "ds_buffer_size must be positive");
    } else if (key == "ds_density") {
      h.ds_density = parse_fraction(spec, value);
    } else if (key == "list" || key == "list_io") {
      h.list_io = parse_bool(spec, value);
    } else {
      bad_hint(spec, "unknown hint \"" + key + "\"");
    }
  }
  return h;
}

std::string Hints::describe() const {
  std::ostringstream os;
  os << "cb_nodes=" << cb_nodes
     << ",cb_buffer_size=" << render_size(cb_buffer_size)
     << ",ds_read=" << sieve_mode_name(ds_read)
     << ",ds_buffer_size=" << render_size(ds_buffer_size)
     << ",ds_density=" << ds_density
     << ",list=" << (list_io ? "on" : "off");
  return os.str();
}

}  // namespace pioblast::pario
