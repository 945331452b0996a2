// Streaming and batch statistics used by the benchmark harnesses to report
// means, spreads and confidence intervals over repeated simulation runs.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace fbc {

/// Numerically stable streaming mean/variance accumulator (Welford).
/// Also tracks min/max. All operations are O(1).
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

  /// Number of observations added so far.
  [[nodiscard]] std::size_t count() const noexcept { return n_; }

  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Unbiased sample variance; 0 when fewer than two observations.
  [[nodiscard]] double variance() const noexcept;

  /// Sample standard deviation.
  [[nodiscard]] double stddev() const noexcept;

  /// Standard error of the mean.
  [[nodiscard]] double stderr_mean() const noexcept;

  /// Half-width of the normal-approximation 95% confidence interval of the
  /// mean (1.96 * stderr). Zero when fewer than two observations.
  [[nodiscard]] double ci95_halfwidth() const noexcept;

  /// Smallest observation; 0 when empty.
  [[nodiscard]] double min() const noexcept { return min_; }

  /// Largest observation; 0 when empty.
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Sum of all observations.
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fractional rank of the `q`-quantile in a sorted sample of `n`
/// observations under the linear-interpolation convention used throughout
/// this project: position q * (n - 1) into the 0-based sorted order, with
/// `q` clamped to [0, 1]. Returns 0 for empty or single-element samples.
///
/// This is THE quantile convention. Every percentile consumer -- the
/// batch quantile() below, obs::Histogram's bucket-walk estimate, the
/// bench harness, fbcload -- derives its rank from here so that p95
/// means the same thing in every report.
[[nodiscard]] double quantile_rank(std::size_t n, double q) noexcept;

/// Linear-interpolation quantile of `values` (the data is copied and
/// sorted). `q` is clamped to [0, 1]. Total: an empty input returns
/// quiet NaN (callers that cannot tolerate NaN must check emptiness
/// themselves; formatting NaN renders as "nan", never UB).
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Arithmetic mean of `values`; 0 when empty.
[[nodiscard]] double mean_of(std::span<const double> values) noexcept;

/// Renders `x` with `digits` significant decimal places, trimming trailing
/// zeros ("0.25", "13", "0.0031").
[[nodiscard]] std::string format_double(double x, int digits = 4);

}  // namespace fbc
