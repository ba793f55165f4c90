// Column-aligned ASCII table output plus CSV export.
//
// Every benchmark prints its results through this so the harness output
// mirrors the paper's tables and can also be piped into a plotting tool.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace exthash {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Append one row; must have exactly as many cells as headers.
  void addRow(std::vector<std::string> cells);

  /// Convenience cell formatters.
  static std::string num(double v, int precision = 4);
  static std::string num(std::uint64_t v);
  static std::string num(std::int64_t v);
  static std::string percent(double fraction, int precision = 2);

  void print(std::ostream& os) const;
  void printCsv(std::ostream& os) const;

  /// Write the CSV form to `path` (creates/truncates). Returns false on
  /// I/O failure instead of throwing so benches can degrade gracefully.
  bool writeCsv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace exthash
