// Streaming latency/loss statistics.
#pragma once

#include <cstddef>
#include <vector>

namespace openspace {

/// Accumulates latency samples and computes summary statistics.
/// Percentiles use the nearest-rank method on the sorted sample set.
class LatencyStats {
 public:
  void add(double latencyS);
  void addLoss() noexcept { ++losses_; }

  std::size_t count() const noexcept { return samples_.size(); }
  std::size_t losses() const noexcept { return losses_; }
  double lossRate() const noexcept;
  double meanS() const;
  double minS() const;
  double maxS() const;
  /// quantile in [0, 1]; throws InvalidArgumentError outside, NotFoundError when
  /// empty.
  double percentileS(double quantile) const;
  double p50S() const { return percentileS(0.50); }
  double p95S() const { return percentileS(0.95); }

 private:
  void ensureSorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  std::size_t losses_ = 0;
  double sumS_ = 0.0;
};

}  // namespace openspace
