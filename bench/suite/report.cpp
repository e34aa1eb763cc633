#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace oociso::benchsuite {

void Metrics::set(std::string_view name, double value, std::string_view unit,
                  std::uint64_t n) {
  metrics_.push_back(Metric{std::string(name), value, std::string(unit), n});
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (lo == hi || !std::isfinite(values[hi])) return values[lo];
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

void write_metrics(bench::JsonWriter& json, std::string_view name,
                   const Metrics& metrics) {
  json.key(name).begin_object();
  for (const Metric& metric : metrics.all()) {
    json.key(metric.name)
        .begin_object()
        .member("value", metric.value)
        .member("unit", std::string_view(metric.unit))
        .member("n", metric.n)
        .end_object();
  }
  json.end_object();
}

std::string metric_lines(std::string_view workload, const Metrics& metrics) {
  std::string out;
  for (const Metric& metric : metrics.all()) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.6g", metric.value);
    out += std::string(workload) + ' ' + metric.name + ' ' + value + ' ' +
           metric.unit + " (n=" + std::to_string(metric.n) + ")\n";
  }
  return out;
}

}  // namespace oociso::benchsuite
