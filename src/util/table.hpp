// table.hpp — fixed-width console tables for the benchmark harness.
// Every bench prints the same rows/series the paper's tables & figures
// report; this keeps that output aligned and diff-friendly.
#pragma once

#include <string>
#include <vector>

namespace phi::util {

/// Column-aligned text table. Add a header row and data rows of strings;
/// `str()` renders with a separator under the header, e.g.
///
///   Algorithm            Median throughput (Mbps)  Median delay (ms)
///   -------------------  ------------------------  -----------------
///   Remy-Phi-ideal       1.97                      3.0
class TextTable {
 public:
  void header(std::vector<std::string> cells);
  void row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);
  static std::string pct(double fraction, int precision = 2);

  std::string str() const;
  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Quote a cell per RFC 4180 when it contains commas/quotes/newlines;
/// returns it untouched otherwise. The single CSV-escape used by every
/// writer in the repo (tables, tracers, telemetry exporters).
std::string csv_escape(const std::string& cell);

/// Shortest round-trippable rendering of a double ("%g"), matching the
/// default iostream formatting the CSV time-series writers historically
/// used.
std::string fmt_g(double v);

/// Write rows to a CSV file; returns false on I/O failure. Cells containing
/// commas/quotes are quoted per RFC 4180.
bool write_csv(const std::string& path,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows);

}  // namespace phi::util
