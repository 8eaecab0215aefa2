#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace ukc {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  UKC_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  UKC_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::FormatCell(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

namespace {

// Column 0 is left-aligned, every other column right-aligned.
void PrintPadded(std::ostream& os, const std::string& cell, size_t width,
                 size_t column) {
  const size_t pad = width > cell.size() ? width - cell.size() : 0;
  if (column > 0) os << std::string(pad, ' ');
  os << cell;
  if (column == 0) os << std::string(pad, ' ');
}

}  // namespace

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  for (size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) os << "  ";
    PrintPadded(os, headers_[c], widths[c], c);
  }
  os << "\n";
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c > 0 ? 2 : 0);
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << "  ";
      PrintPadded(os, row[c], widths[c], c);
    }
    os << "\n";
  }
}

}  // namespace ukc
