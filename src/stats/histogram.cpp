#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/contracts.hpp"
#include "stats/summary.hpp"

namespace gsight::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  GSIGHT_ASSERT(std::isfinite(lo) && std::isfinite(hi) && hi > lo,
                "histogram range must be finite and non-empty");
  GSIGHT_ASSERT(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  // NaN/inf cannot be binned: casting the scaled position to an integer
  // would be undefined behaviour. Count them aside instead of clamping —
  // a NaN clamped into a bin would silently corrupt the distribution.
  if (!std::isfinite(x)) {
    ++nonfinite_;
    return;
  }
  const double t = (x - lo_) / (hi_ - lo_);
  const double pos =
      std::clamp(t * static_cast<double>(counts_.size()), 0.0,
                 static_cast<double>(counts_.size()) - 1.0);
  ++counts_[static_cast<std::size_t>(pos)];
  ++total_;
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t i) const { return bin_low(i + 1); }

double Histogram::cdf(double x) const {
  if (total_ == 0) return 0.0;
  std::size_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (bin_high(i) <= x) {
      cum += counts_[i];
    } else {
      break;
    }
  }
  return static_cast<double>(cum) / static_cast<double>(total_);
}

std::string Histogram::ascii(std::size_t width) const {
  std::string out;
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        std::llround(static_cast<double>(counts_[i]) * static_cast<double>(width) /
                     static_cast<double>(peak)));
    std::snprintf(line, sizeof line, "%10.3f..%-10.3f %8zu |", bin_low(i),
                  bin_high(i), counts_[i]);
    out += line;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

std::vector<std::pair<double, double>> empirical_cdf(std::vector<double> values,
                                                     std::size_t max_points) {
  std::vector<std::pair<double, double>> pts;
  if (values.empty()) return pts;
  if (max_points == 0) max_points = 1;  // n / 0 below otherwise
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  for (std::size_t i = 0; i < n; i += step) {
    pts.emplace_back(values[i],
                     static_cast<double>(i + 1) / static_cast<double>(n));
  }
  // Ensure the curve ends at (max, 1.0). Comparing values alone is wrong
  // when the maximum is duplicated: the last emitted point can carry the
  // max value with a fraction < 1, so patch the fraction in place.
  if (pts.back().first == values.back()) {  // gsight-analyze: allow(simtime-eq)
    pts.back().second = 1.0;
  } else {
    pts.emplace_back(values.back(), 1.0);
  }
  return pts;
}

std::string distribution_summary(const std::vector<double>& values) {
  if (values.empty()) return "(empty)";
  std::vector<double> v = values;
  const double p25 = percentile_inplace(v, 25);
  const double p50 = percentile_inplace(v, 50);
  const double p75 = percentile_inplace(v, 75);
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "n=%zu min=%.4g p25=%.4g median=%.4g p75=%.4g max=%.4g "
                "mean=%.4g sd=%.4g",
                values.size(), *std::min_element(values.begin(), values.end()),
                p25, p50, p75, *std::max_element(values.begin(), values.end()),
                mean(values), stddev(values));
  return buf;
}

}  // namespace gsight::stats
