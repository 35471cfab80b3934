// Console table + CSV rendering for experiment reports.

#ifndef THEMIS_SRC_STATS_REPORT_H_
#define THEMIS_SRC_STATS_REPORT_H_

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace themis {

// A simple fixed-width console table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  std::string Render() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    std::ostringstream out;
    auto line = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : std::string();
        out << "| " << cell << std::string(widths[c] - cell.size() + 1, ' ');
      }
      out << "|\n";
    };
    line(headers_);
    for (size_t c = 0; c < widths.size(); ++c) {
      out << "|" << std::string(widths[c] + 2, '-');
    }
    out << "|\n";
    for (const auto& row : rows_) {
      line(row);
    }
    return out.str();
  }

  void Print() const { std::cout << Render() << std::flush; }

  // Writes rows as CSV (headers first). False when the file cannot be
  // opened or a write to it fails.
  bool WriteCsv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    auto write_row = [&out](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < cells.size(); ++c) {
        if (c > 0) {
          out << ",";
        }
        out << cells[c];
      }
      out << "\n";
    };
    write_row(headers_);
    for (const auto& row : rows_) {
      write_row(row);
    }
    out.flush();
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// printf-style float formatting helper for table cells.
inline std::string FormatDouble(double value, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace themis

#endif  // THEMIS_SRC_STATS_REPORT_H_
