#include "io/csv.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "io/env.h"

namespace falvolt::io {

std::string csv_escape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path), columns_(header.size()) {
  if (!can_publish(path)) {
    throw std::runtime_error("CsvWriter: cannot write " + path);
  }
  append(header);
}

CsvWriter::~CsvWriter() {
  if (std::uncaught_exceptions() > uncaught_at_construction_) return;
  try {
    close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
}

void CsvWriter::append(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) text_ += ',';
    text_ += csv_escape(cells[i]);
  }
  text_ += '\n';
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CsvWriter::row: column count mismatch");
  }
  append(cells);
}

void CsvWriter::row(const std::vector<double>& cells) {
  std::vector<std::string> s;
  s.reserve(cells.size());
  for (const double v : cells) s.push_back(format(v));
  row(s);
}

void CsvWriter::close() {
  if (closed_) return;
  closed_ = true;
  if (!publish_file(path_, text_)) {
    throw std::runtime_error("CsvWriter: " + path_ +
                             " did not read back intact; not written");
  }
}

std::string CsvWriter::format(double v) {
  if (std::floor(v) == v && std::fabs(v) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(v);
    return os.str();
  }
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace falvolt::io
