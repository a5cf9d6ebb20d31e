#include "util/csv.hpp"

#include <stdexcept>

#include "util/json.hpp"

namespace ewalk {

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : path_(path), width_(header.size()), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  row(header);
}

CsvWriter::~CsvWriter() = default;

void CsvWriter::row(std::initializer_list<double> values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (const double v : values) cells.push_back(format_json_double(v));
  row(cells);
}

void CsvWriter::row(const std::vector<std::string>& values) {
  if (values.size() != width_) throw std::runtime_error("CsvWriter: row width mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out_ << ',';
    out_ << values[i];
  }
  out_ << '\n';
  out_.flush();
}

}  // namespace ewalk
