#include "src/core/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace lmb {

Sample::Sample(std::vector<double> values) : values_(std::move(values)) {}

void Sample::add(double v) {
  values_.push_back(v);
  sorted_valid_ = false;
}

void Sample::ensure_sorted() const {
  if (sorted_valid_) {
    return;
  }
  if (sorted_count_ > 0 && sorted_count_ < values_.size() && sorted_.size() == sorted_count_) {
    // add() only appends, so everything before sorted_count_ is still the
    // sorted prefix: sort just the new tail and merge it in.
    sorted_.insert(sorted_.end(), values_.begin() + static_cast<std::ptrdiff_t>(sorted_count_),
                   values_.end());
    auto mid = sorted_.begin() + static_cast<std::ptrdiff_t>(sorted_count_);
    std::sort(mid, sorted_.end());
    std::inplace_merge(sorted_.begin(), mid, sorted_.end());
  } else {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  sorted_count_ = values_.size();
  sorted_valid_ = true;
}

double Sample::min() const {
  if (values_.empty()) {
    throw std::logic_error("Sample::min on empty sample");
  }
  if (sorted_valid_) {
    return sorted_.front();  // O(1) off the cached order
  }
  return *std::min_element(values_.begin(), values_.end());
}

double Sample::max() const {
  if (values_.empty()) {
    throw std::logic_error("Sample::max on empty sample");
  }
  if (sorted_valid_) {
    return sorted_.back();
  }
  return *std::max_element(values_.begin(), values_.end());
}

double Sample::mean() const {
  if (values_.empty()) {
    throw std::logic_error("Sample::mean on empty sample");
  }
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Sample::median() const { return percentile(50.0); }

double Sample::stddev() const {
  if (values_.size() < 2) {
    return 0.0;
  }
  double m = mean();
  double ss = 0.0;
  for (double v : values_) {
    ss += (v - m) * (v - m);
  }
  return std::sqrt(ss / static_cast<double>(values_.size() - 1));
}

double Sample::percentile(double p) const {
  if (values_.empty()) {
    throw std::logic_error("Sample::percentile on empty sample");
  }
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile out of [0,100]");
  }
  ensure_sorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double Sample::ci_half_width(double confidence) const {
  // Two-sided Student-t critical values for dof 1..30; beyond that the
  // normal approximation is within ~1%.
  static constexpr double kT90[] = {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860,
                                    1.833, 1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746,
                                    1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711,
                                    1.708, 1.706, 1.703, 1.701, 1.699, 1.697};
  static constexpr double kT95[] = {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
                                    2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
                                    2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
                                    2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  static constexpr double kT99[] = {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355,
                                    3.250,  3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921,
                                    2.898,  2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797,
                                    2.787,  2.779, 2.771, 2.763, 2.756, 2.750};
  const double* table = nullptr;
  double asymptote = 0.0;
  if (confidence == 0.90) {
    table = kT90;
    asymptote = 1.645;
  } else if (confidence == 0.95) {
    table = kT95;
    asymptote = 1.960;
  } else if (confidence == 0.99) {
    table = kT99;
    asymptote = 2.576;
  } else {
    throw std::invalid_argument("ci_half_width: confidence must be 0.90, 0.95, or 0.99");
  }
  size_t n = values_.size();
  if (n < 2) {
    return 0.0;
  }
  size_t dof = n - 1;
  double t = dof <= 30 ? table[dof - 1] : asymptote;
  return t * stddev() / std::sqrt(static_cast<double>(n));
}

}  // namespace lmb
