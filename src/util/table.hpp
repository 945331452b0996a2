// Plain-text and CSV tabular output for benchmark harnesses.
//
// Every figure/table bench in bench/ prints its series through TextTable so
// the console output lines up and the same rows can be written as CSV for
// plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fbc {

/// A simple column-aligned text table.
///
/// Usage:
///   TextTable t({"cache", "landlord", "optfb"});
///   t.add_row({"10", "0.61", "0.34"});
///   t.print(std::cout);
class TextTable {
 public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a data row. Rows shorter than the header are padded with
  /// empty cells; longer rows are rejected (throws std::invalid_argument).
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Number of columns.
  [[nodiscard]] std::size_t cols() const noexcept { return headers_.size(); }

  /// Writes the table with space-aligned columns and a header rule.
  void print(std::ostream& os) const;

  /// Writes the table as RFC-4180-ish CSV (cells containing commas or
  /// quotes are quoted).
  void print_csv(std::ostream& os) const;

  /// Writes the table as a JSON array of row objects keyed by header.
  /// Cells that parse fully as numbers are emitted bare; everything else
  /// becomes a JSON string. This is the machine-readable format the bench
  /// harnesses and fbcload emit under --json.
  void print_json(std::ostream& os) const;

  /// Convenience: renders print() into a string.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fbc
