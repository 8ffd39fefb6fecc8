// Bounded log-linear latency histogram (HDR-histogram style).
//
// The serving session used to keep every latency sample in a
// std::vector<double>, which grows without bound over a long replay --
// a million-request soak held two 8 MB vectors that stats() re-sorted
// on every scrape. A Histogram is the constant-memory replacement: a
// fixed array of buckets whose width grows geometrically with the
// value, so the relative quantization error is bounded by construction.
//
// Bucket layout: the first octave [0, 1) is linear (kSub buckets of
// width 1/kSub); every octave [2^e, 2^(e+1)) above it is split into
// kSub log-linear subbuckets of width 2^e/kSub. With kSubBits = 5
// (32 subbuckets per octave) any recorded value v >= 1 lands in a
// bucket whose width is at most v/32, so every percentile the histogram
// reports is within 1/32 ~ 3.125% of the exact-sample percentile --
// comfortably inside the 5% tolerance the CI gate asserts
// (tests/test_histogram.cc measures it directly). kOctaves = 40 covers
// values up to 2^40 (~1.1e12); larger values clamp into the top bucket
// and only widen `max`, which is tracked exactly.
//
// count / sum / min / max are exact; only percentile interpolation is
// quantized. Non-finite samples are dropped (counted in dropped());
// negatives clamp to 0. merge() makes per-shard histograms additive.
// ~10 KB per instance, no allocation.
//
// Header-only so it can live in the davinci_common INTERFACE library
// next to percentile.h, whose stats::Summary it produces.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/json.h"
#include "common/percentile.h"

namespace davinci::stats {

class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;  // subbuckets per octave
  static constexpr int kOctaves = 40;         // values < 2^40 are exact-bucket
  static constexpr int kBuckets = (kOctaves + 1) * kSub;

  void record(double v) {
    if (!std::isfinite(v)) {
      dropped_ += 1;
      return;
    }
    if (v < 0.0) v = 0.0;
    counts_[bucket_of(v)] += 1;
    count_ += 1;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
  }

  void merge(const Histogram& other) {
    for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    if (other.count_ > 0) {
      if (count_ == 0 || other.min_ < min_) min_ = other.min_;
      if (count_ == 0 || other.max_ > max_) max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    dropped_ += other.dropped_;
  }

  void reset() { *this = Histogram(); }

  std::int64_t count() const { return count_; }
  std::int64_t dropped() const { return dropped_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  // Linear-interpolation percentile over the bucketed distribution --
  // the same rank definition as stats::percentile (q * (count - 1)
  // interpolated between the two straddling ranks), with each rank's
  // value reconstructed by linear interpolation inside its bucket.
  // Empty histogram yields 0; q is clamped to [0, 1].
  double percentile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(count_ - 1);
    const std::int64_t lo = static_cast<std::int64_t>(pos);
    const std::int64_t hi = lo + 1 < count_ ? lo + 1 : lo;
    const double frac = pos - static_cast<double>(lo);
    return value_at_rank(lo) * (1.0 - frac) + value_at_rank(hi) * frac;
  }

  // The shared reporting shape (common/percentile.h): exact count / mean
  // / max, bucket-quantized percentiles.
  Summary summary() const {
    Summary s;
    s.count = count_;
    s.mean = mean();
    s.p50 = percentile(0.50);
    s.p90 = percentile(0.90);
    s.p99 = percentile(0.99);
    s.p999 = percentile(0.999);
    s.max = max();
    return s;
  }

  // Sparse serialization: [[bucket_lower_bound, count], ...], ascending.
  // The schema-v6 "hist" objects embed this so an offline consumer can
  // re-derive any percentile or merge documents.
  std::string buckets_json() const {
    std::string out = "[";
    bool first = true;
    for (int b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (!first) out += ",";
      first = false;
      out += '[';
      out += json::number(bucket_lo(b));
      out += ',';
      out += json::number(counts_[b]);
      out += ']';
    }
    out += "]";
    return out;
  }

  // Bucket geometry, exposed for the tolerance tests.
  static int bucket_of(double v) {
    if (v < 1.0) {
      const int b = static_cast<int>(v * kSub);
      return b < kSub ? b : kSub - 1;
    }
    int exp = 0;
    const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
    int oct = exp - 1;                     // v in [2^oct, 2^(oct+1))
    if (oct >= kOctaves) return kBuckets - 1;
    int sub = static_cast<int>((2.0 * m - 1.0) * kSub);
    if (sub >= kSub) sub = kSub - 1;
    return kSub + oct * kSub + sub;
  }

  static double bucket_lo(int b) {
    if (b < kSub) return static_cast<double>(b) / kSub;
    const int oct = (b - kSub) / kSub;
    const int sub = (b - kSub) % kSub;
    return std::ldexp(1.0 + static_cast<double>(sub) / kSub, oct);
  }

  static double bucket_hi(int b) {
    return b + 1 < kBuckets ? bucket_lo(b + 1)
                            : std::ldexp(2.0, kOctaves - 1);
  }

 private:
  // The value at 0-based rank r (r in [0, count)), interpolated inside
  // its bucket and clamped to the exact [min, max] envelope. The
  // endpoint ranks return the exactly-tracked min/max, so p0 and p100
  // are never quantized (values above 2^40 clamp into the top bucket,
  // but max still reports them exactly).
  double value_at_rank(std::int64_t r) const {
    if (r <= 0) return min_;
    if (r >= count_ - 1) return max_;
    std::int64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (r < cum + counts_[b]) {
        const double within =
            (static_cast<double>(r - cum) + 0.5) /
            static_cast<double>(counts_[b]);
        const double v =
            bucket_lo(b) + within * (bucket_hi(b) - bucket_lo(b));
        return std::clamp(v, min_, max_);
      }
      cum += counts_[b];
    }
    return max_;
  }

  std::int64_t counts_[kBuckets] = {};
  std::int64_t count_ = 0;
  std::int64_t dropped_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace davinci::stats
