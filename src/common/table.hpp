// ASCII table and figure-series printers used by the benchmark harness to
// regenerate the paper's tables and plotted series.
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace whatsup {

// Formats a double with `prec` digits after the point.
std::string fixed(double value, int prec = 2);
// Human-readable message counts: 4600 -> "4.6k", 1100000 -> "1.1M".
std::string si_count(double value);

// Aligned ASCII table, printed with a title banner; mirrors the layout of a
// paper table so measured rows read side by side with the paper's.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  std::size_t rows() const { return rows_.size(); }

  void print(std::ostream& os, const std::string& title = {}) const;
  // Comma-separated dump (for scripting / plotting).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Column-oriented numeric series, printed gnuplot-style: a comment header
// followed by one x/y... row per line. Used for every reproduced figure.
class Series {
 public:
  Series(std::string x_label, std::vector<std::string> y_labels);

  void add(double x, std::vector<double> ys);
  std::size_t points() const { return xs_.size(); }

  void print(std::ostream& os, const std::string& title = {}) const;

 private:
  std::string x_label_;
  std::vector<std::string> y_labels_;
  std::vector<double> xs_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace whatsup
