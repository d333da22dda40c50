#include "report/csv.h"

#include <stdexcept>
#include <utility>

#include "core/atomic_file.h"
#include "core/check.h"
#include "report/json.h"

namespace sustainai::report {

CsvWriter::CsvWriter(const std::vector<std::string>& headers)
    : columns_(headers.size()) {
  check_arg(!headers.empty(), "CsvWriter: need at least one column");
  for (const std::string& h : headers) {
    cell(h);
  }
  end_row();
}

void CsvWriter::separate() {
  if (cells_ > 0) {
    out_ += ',';
  }
  ++cells_;
}

CsvWriter& CsvWriter::cell(std::string_view text) {
  separate();
  if (text.find_first_of(",\"\n") == std::string_view::npos) {
    out_ += text;
    return *this;
  }
  out_ += '"';
  for (const char ch : text) {
    if (ch == '"') {
      out_ += '"';
    }
    out_ += ch;
  }
  out_ += '"';
  return *this;
}

CsvWriter& CsvWriter::cell(double value) {
  separate();
  append_shortest_double(out_, value);
  return *this;
}

void CsvWriter::end_row() {
  check_arg(cells_ == columns_, "CsvWriter::add_row: arity mismatch");
  out_ += '\n';
  cells_ = 0;
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  check_arg(cells.size() == columns_, "CsvWriter::add_row: arity mismatch");
  for (const std::string& c : cells) {
    cell(c);
  }
  end_row();
}

void CsvWriter::add_row_values(const std::vector<double>& values) {
  check_arg(values.size() == columns_, "CsvWriter::add_row: arity mismatch");
  for (const double v : values) {
    separate();
    append_general10(out_, v);
  }
  end_row();
}

std::string CsvWriter::to_string() const& { return out_; }

std::string CsvWriter::to_string() && { return std::move(out_); }

bool CsvWriter::write_file(const std::string& path) const {
  try {
    write_file_atomically(path, {out_});
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

}  // namespace sustainai::report
