// CSV emission for downstream plotting of figure series.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace sustainai::report {

// Streams rows into one buffer as they arrive: the header row on
// construction, then each cell escaped in place. A cell holding ',', '"'
// or a newline is quoted, with '"' doubled.
class CsvWriter {
 public:
  explicit CsvWriter(const std::vector<std::string>& headers);

  void add_row(const std::vector<std::string>& cells);
  // Cells in "%.10g" form.
  void add_row_values(const std::vector<double>& values);

  // The streaming form of add_row: one cell at a time, then end_row(),
  // which checks the arity. A double cell is shortest_double text, written
  // without a temporary string.
  CsvWriter& cell(std::string_view text);
  CsvWriter& cell(double value);
  void end_row();

  [[nodiscard]] std::string to_string() const&;
  [[nodiscard]] std::string to_string() &&;

  // Writes to `path`; returns false on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  void separate();

  std::size_t columns_;
  std::size_t cells_ = 0;  // cells of the row being written
  std::string out_;
};

}  // namespace sustainai::report
