#pragma once
// CSV writer used by the figure benches to persist the series they print,
// so results can be re-plotted without re-running the experiment.

#include <exception>
#include <string>
#include <vector>

namespace falvolt::io {

/// RFC-4180 field escaping: a field containing a comma, double quote,
/// CR, or LF is wrapped in double quotes with embedded quotes doubled;
/// every other field passes through unchanged (so existing numeric
/// output stays byte-identical).
std::string csv_escape(const std::string& field);

/// Collects rows and publishes the whole file through io::publish_file on
/// close(): a run killed before then leaves no file (and any previous one
/// intact) at the path, never a partial table. Values are formatted with
/// enough precision to round-trip floats. Every cell (header included) is
/// RFC-4180-escaped.
class CsvWriter {
 public:
  /// Fails fast (std::runtime_error) when the directory of `path` does
  /// not accept new files (io::can_publish); writes nothing yet.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);
  /// Publishes if close() was not called, unless an exception thrown
  /// after construction is unwinding through the owner: a failed run
  /// must not replace a complete table with a partial one. A publish
  /// failure is reported on stderr.
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Append one row; the column count must match the header.
  void row(const std::vector<std::string>& cells);

  /// Convenience overload: numeric row.
  void row(const std::vector<double>& cells);

  /// Publishes the file (once); throws std::runtime_error on failure.
  void close();

  const std::string& path() const { return path_; }

  /// Format a double compactly but losslessly enough for plotting.
  static std::string format(double v);

 private:
  void append(const std::vector<std::string>& cells);

  std::string path_;
  std::string text_;
  std::size_t columns_ = 0;
  bool closed_ = false;
  int uncaught_at_construction_ = std::uncaught_exceptions();
};

}  // namespace falvolt::io
