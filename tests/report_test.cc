#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report/ascii_chart.h"
#include "report/csv.h"
#include "report/table.h"

namespace sustainai::report {
namespace {

TEST(Table, FormatsAlignedColumns) {
  Table t({"model", "tCO2e"});
  t.add_row({"GPT-3", "552.1"});
  t.add_row({"Meena", "96.4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| model |"), std::string::npos);
  EXPECT_NE(s.find("GPT-3"), std::string::npos);
  EXPECT_NE(s.find("|-------|"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, AddRowValuesFormats) {
  Table t({"label", "a", "b"});
  t.add_row_values("x", {1.23456, 1000000.0});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("1.235"), std::string::npos);
  EXPECT_NE(s.find("1e+06"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW((void)t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW((void)Table({}), std::invalid_argument);
}

TEST(Formatters, PercentAndFactor) {
  EXPECT_EQ(fmt_percent(0.285), "28.5%");
  EXPECT_EQ(fmt_factor(812.08), "812x");
  EXPECT_EQ(fmt(3.14159), "3.142");
}

TEST(BarChart, ScalesToMax) {
  const std::string chart =
      bar_chart({"a", "bb"}, {1.0, 2.0}, 10);
  // The max bar is exactly `width` hashes.
  EXPECT_NE(chart.find("##########"), std::string::npos);
  EXPECT_NE(chart.find("#####"), std::string::npos);
  EXPECT_NE(chart.find("bb"), std::string::npos);
}

TEST(BarChart, HandlesAllZeros) {
  const std::string chart = bar_chart({"a"}, {0.0});
  EXPECT_NE(chart.find("a"), std::string::npos);
}

TEST(BarChart, RejectsBadInput) {
  EXPECT_THROW((void)bar_chart({"a"}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)bar_chart({"a"}, {-1.0}), std::invalid_argument);
}

TEST(Sparkline, MapsRangeToLevels) {
  const std::string line = sparkline({0.0, 1.0, 0.5});
  EXPECT_EQ(line.size(), 3u);
  EXPECT_EQ(line[0], ' ');
  EXPECT_EQ(line[1], '#');
  EXPECT_TRUE(sparkline({}).empty());
  // Constant series stays at the lowest level.
  EXPECT_EQ(sparkline({2.0, 2.0}), "  ");
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"name", "note"});
  csv.add_row({"a,b", "say \"hi\"\nline2"});
  const std::string s = csv.to_string();
  EXPECT_NE(s.find("\"a,b\""), std::string::npos);
  EXPECT_NE(s.find("\"say \"\"hi\"\""), std::string::npos);
}

TEST(Csv, WritesValuesAndFile) {
  CsvWriter csv({"x", "y"});
  csv.add_row_values({1.5, 2.5});
  const std::string path = "/tmp/sustainai_csv_test.csv";
  ASSERT_TRUE(csv.write_file(path));
  std::ifstream in(path);
  std::string header;
  std::string row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "x,y");
  EXPECT_EQ(row, "1.5,2.5");
  std::remove(path.c_str());
}

// The bytes of the writer that kept every row as copied strings and joined
// them through an ostringstream at the end.
std::string copying_csv(const std::vector<std::vector<std::string>>& rows) {
  const auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      return cell;
    }
    std::string out = "\"";
    for (const char ch : cell) {
      out += ch == '"' ? std::string("\"\"") : std::string(1, ch);
    }
    return out + '"';
  };
  std::ostringstream out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c ? "," : "") << escape(row[c]);
    }
    out << "\n";
  }
  return out.str();
}

TEST(Csv, StreamedBytesMatchTheCopyingWriter) {
  const std::vector<std::vector<std::string>> rows = {
      {"id", "note, with comma", "q\"uote"},
      {"plain", "a,b", "say \"hi\"\nline2"},
      {"", "\"", "\n"},
      {"trailing,", ",", "cr\r"},
      {"\"\"", "\",\"", "x"}};
  CsvWriter by_row(rows[0]);
  CsvWriter by_cell(rows[0]);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    by_row.add_row(rows[r]);
    for (const std::string& cell : rows[r]) {
      by_cell.cell(cell);
    }
    by_cell.end_row();
  }
  EXPECT_EQ(by_row.to_string(), copying_csv(rows));
  EXPECT_EQ(by_cell.to_string(), copying_csv(rows));
  EXPECT_EQ(by_row.to_string(),
            "id,\"note, with comma\",\"q\"\"uote\"\n"
            "plain,\"a,b\",\"say \"\"hi\"\"\nline2\"\n"
            ",\"\"\"\",\"\n\"\n"
            "\"trailing,\",\",\",cr\r\n"
            "\"\"\"\"\"\",\"\"\",\"\"\",x\n");

  // A double cell is shortest_double's text; add_row_values is "%.10g".
  CsvWriter numbers({"a", "b", "c"});
  numbers.cell(0.1).cell(-0.0).cell(1.0 / 3.0).end_row();
  numbers.add_row_values({0.1, -0.0, 1.0 / 3.0});
  EXPECT_EQ(std::move(numbers).to_string(),
            "a,b,c\n0.1,-0,0.3333333333333333\n0.1,-0,0.3333333333\n");
}

TEST(Csv, StreamedRowsCheckTheirArity) {
  CsvWriter csv({"a", "b"});
  csv.cell("1");
  EXPECT_THROW(csv.end_row(), std::invalid_argument);
  CsvWriter values({"a", "b"});
  EXPECT_THROW(values.add_row_values({1.0}), std::invalid_argument);
}

TEST(Csv, RejectsArityMismatch) {
  CsvWriter csv({"a"});
  EXPECT_THROW((void)csv.add_row({"1", "2"}), std::invalid_argument);
}

}  // namespace
}  // namespace sustainai::report
