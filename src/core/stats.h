// Small-sample statistics for benchmark repetitions.
#ifndef LMBENCHPP_SRC_CORE_STATS_H_
#define LMBENCHPP_SRC_CORE_STATS_H_

#include <cstddef>
#include <vector>

namespace lmb {

// Accumulates observations and answers order/moment statistics.  Stores the
// raw values (benchmark repetition counts are small) so exact medians and
// percentiles are available.
class Sample {
 public:
  Sample() = default;
  explicit Sample(std::vector<double> values);

  void add(double v);

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double min() const;
  double max() const;
  double mean() const;
  double median() const;
  // Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
  double stddev() const;
  // Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;
  // Half-width of the two-sided Student-t confidence interval on the mean:
  // t(confidence, n-1) * stddev / sqrt(n).  Benchmark repetition counts are
  // small (3..11), where the t correction matters — a z-based interval
  // understates noise by 4x at n = 3.  Supported confidence levels: 0.90,
  // 0.95, 0.99 (throws std::invalid_argument otherwise).  0 for n < 2.
  double ci_half_width(double confidence = 0.95) const;

  const std::vector<double>& values() const { return values_; }

 private:
  // Maintains a sorted view of values_ lazily, behind a dirty flag, so the
  // common p50/p95/p99/p999 quadruple sorts at most once.  When values were
  // appended since the last sort, only the new suffix is sorted and merged
  // into the already-sorted prefix (O(k log k + n) for k new values instead
  // of O(n log n)), which matters for the load path where percentiles are
  // polled between batches of adds.
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable size_t sorted_count_ = 0;  // prefix of values_ already in sorted_
  mutable bool sorted_valid_ = false;
};

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_STATS_H_
