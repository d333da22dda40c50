#include "report/csv.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/atomic_file.h"
#include "core/check.h"

namespace sustainai::report {

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  check_arg(!headers_.empty(), "CsvWriter: need at least one column");
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  check_arg(cells.size() == headers_.size(), "CsvWriter::add_row: arity mismatch");
  rows_.push_back(cells);
}

void CsvWriter::add_row_values(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    cells.emplace_back(buf);
  }
  add_row(cells);
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    return cell;
  }
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') {
      out += "\"\"";
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

std::string CsvWriter::to_string() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << (c ? "," : "") << escape(headers_[c]);
  }
  out << "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c ? "," : "") << escape(row[c]);
    }
    out << "\n";
  }
  return out.str();
}

bool CsvWriter::write_file(const std::string& path) const {
  try {
    write_file_atomically(path, {to_string()});
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

}  // namespace sustainai::report
