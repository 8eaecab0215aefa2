// Fixed-width text table renderer shared by the benchmark binaries, so
// every reproduced paper table prints in the same aligned format.

#ifndef UKC_COMMON_TABLE_H_
#define UKC_COMMON_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace ukc {

/// Accumulates rows of string cells and renders them with aligned
/// columns and a header rule: the first column is left-aligned and the
/// rest right-aligned (the usual "label, numbers..." layout).
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats each cell with FormatCell.
  template <typename... Ts>
  void AddRowValues(const Ts&... values) {
    AddRow({FormatCell(values)...});
  }

  /// Renders the aligned table.
  void Print(std::ostream& os) const;

  /// Formats a value for a cell: doubles with %.4g, strings verbatim.
  static std::string FormatCell(const std::string& value) { return value; }
  static std::string FormatCell(const char* value) { return value; }
  static std::string FormatCell(double value);
  static std::string FormatCell(int value) { return std::to_string(value); }
  static std::string FormatCell(long value) { return std::to_string(value); }
  static std::string FormatCell(long long value) { return std::to_string(value); }
  static std::string FormatCell(unsigned value) { return std::to_string(value); }
  static std::string FormatCell(unsigned long value) { return std::to_string(value); }
  static std::string FormatCell(unsigned long long value) {
    return std::to_string(value);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ukc

#endif  // UKC_COMMON_TABLE_H_
