// Minimal CSV emitter used by the bench harness to persist every series it
// prints, so figures can be re-plotted without re-running experiments.
#pragma once

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ewalk {

/// Writes rows to a CSV file. Doubles are spelled by format_json_double
/// (%.17g) so round-trips are lossless. Throws std::runtime_error if the
/// file cannot be opened.
class CsvWriter {
 public:
  CsvWriter(const std::string& path, std::vector<std::string> header);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Appends one row; size must match the header width.
  void row(std::initializer_list<double> values);
  void row(const std::vector<std::string>& values);

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::size_t width_;
  std::ofstream out_;
};

}  // namespace ewalk
