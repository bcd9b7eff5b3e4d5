// Formatted table output used by the figure/table benches.
//
// Every bench prints rows in the same layout the paper reports (one row
// per sweep point, columns for simulation time, emulation time, speedup,
// and the paper's approximate value where known), so the reproduction
// is regenerated by running the binaries (README "Substitutions").
#pragma once

#include <string>
#include <vector>

namespace qc {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; cells are preformatted strings.
  void add_row(std::vector<std::string> cells);

  /// Renders with aligned columns, a header rule, and an optional title.
  [[nodiscard]] std::string to_string(const std::string& title = "") const;

  /// Convenience: renders to stdout.
  void print(const std::string& title = "") const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Scientific-notation cell (e.g. "1.44e-04 s" style without unit).
std::string sci(double v, int precision = 3);

/// Fixed-notation cell.
std::string fixed(double v, int precision = 2);

}  // namespace qc
