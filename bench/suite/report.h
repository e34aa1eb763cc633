#pragma once
// Metric records, percentiles and the benchmark's JSON / text output.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bench_common.h"

namespace oociso::benchsuite {

/// One reported number: value, unit, and the sample count behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;
};

/// Insertion-ordered metric list; each name is set once.
class Metrics {
 public:
  void set(std::string_view name, double value, std::string_view unit,
           std::uint64_t n);
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Linear-interpolated percentile (q in [0, 1]) of `values`; +inf entries
/// (failed requests) sort last. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median of `values` (percentile 0.5).
[[nodiscard]] double median(std::vector<double> values);

/// Writes the member "<name>": {"<metric>": {"value": v, "unit": u, "n": n},
/// ...} into the open object of `json`; a non-finite value (a percentile
/// over failed requests) is written as null.
void write_metrics(bench::JsonWriter& json, std::string_view name,
                   const Metrics& metrics);

/// "<workload> <metric> <value> <unit> (n=<n>)" lines, one per metric.
[[nodiscard]] std::string metric_lines(std::string_view workload,
                                       const Metrics& metrics);

}  // namespace oociso::benchsuite
