#include "core/table.h"

#include <algorithm>
#include <cstdio>

#include "stats/expect.h"

namespace gplus::core {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  GPLUS_EXPECT(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  GPLUS_EXPECT(cells.size() <= headers_.size(),
               "row has more cells than columns");
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::string out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      if (c + 1 < cells.size()) {
        out.append(width[c] - cells[c].size() + 2, ' ');
      }
    }
    out += '\n';
  };
  emit(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    rule += width[c] + (c + 1 < width.size() ? 2 : 0);
  }
  out.append(rule, '-');
  out += '\n';
  for (const auto& row : rows_) emit(row);
  return out;
}

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string fmt_percent(double fraction, int decimals) {
  return fmt_double(fraction * 100.0, decimals) + "%";
}

std::string fmt_count(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace gplus::core
