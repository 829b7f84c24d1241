// Minimal fixed-width table printer used by the bench harnesses to emit
// paper-style tables (Table 1, Table 2) and figure series to stdout.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace pioblast::util {

/// Column-aligned text table.
///
/// Usage:
///   Table t({"Program", "Copy/Input", "Search", "Output"});
///   t.add_row({"mpiBLAST", "17.1", "318.5", "1007.2"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Number of data rows (excluding the header).
  std::size_t row_count() const { return rows_.size(); }

  /// Renders with padded columns, a rule under the header.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (bench convenience).
std::string fixed(double value, int precision = 1);

}  // namespace pioblast::util
