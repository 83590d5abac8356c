#include <openspace/net/metrics.hpp>

#include <algorithm>
#include <cmath>

#include <openspace/geo/error.hpp>

namespace openspace {

void LatencyStats::add(double latencyS) {
  if (latencyS < 0.0) {
    throw InvalidArgumentError("LatencyStats::add: negative latency");
  }
  samples_.push_back(latencyS);
  sumS_ += latencyS;
  sorted_ = false;
}

double LatencyStats::lossRate() const noexcept {
  const std::size_t total = samples_.size() + losses_;
  return total == 0 ? 0.0 : static_cast<double>(losses_) / static_cast<double>(total);
}

double LatencyStats::meanS() const {
  if (samples_.empty()) throw NotFoundError("LatencyStats: no samples");
  return sumS_ / static_cast<double>(samples_.size());
}

void LatencyStats::ensureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyStats::minS() const {
  if (samples_.empty()) throw NotFoundError("LatencyStats: no samples");
  ensureSorted();
  return samples_.front();
}

double LatencyStats::maxS() const {
  if (samples_.empty()) throw NotFoundError("LatencyStats: no samples");
  ensureSorted();
  return samples_.back();
}

double LatencyStats::percentileS(double quantile) const {
  if (!(quantile >= 0.0 && quantile <= 1.0)) {
    throw InvalidArgumentError("LatencyStats::percentileS: quantile outside [0,1]");
  }
  if (samples_.empty()) throw NotFoundError("LatencyStats: no samples");
  ensureSorted();
  const auto idx = static_cast<std::size_t>(
      std::ceil(quantile * static_cast<double>(samples_.size())));
  return samples_[std::min(samples_.size() - 1, idx == 0 ? 0 : idx - 1)];
}

}  // namespace openspace
