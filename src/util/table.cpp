#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/error.h"

namespace pioblast::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  PIOBLAST_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  PIOBLAST_CHECK_MSG(cells.size() == header_.size(),
                     "row has " << cells.size() << " cells, header has "
                                << header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size())
        os << std::string(width[c] - row[c].size() + 2, ' ');
    }
    os << '\n';
  };

  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 < width.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

}  // namespace pioblast::util
