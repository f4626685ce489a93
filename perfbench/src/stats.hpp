// Pure measurement arithmetic of the benchmark: percentile selection with
// the ten-beyond rule, percentiles of a histogram delta, the open-loop
// send schedule, and span self time. Header-only and free of I/O so that
// tests/logic_test.cpp can pin every rule down exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Ns = std::int64_t;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond the selected rank.
constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t n = 0;       // samples the percentile was taken over
  std::size_t beyond = 0;  // samples ranked strictly above it
  bool supported() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile: the value of rank ceil(q * n) in ascending
/// order. A failed operation enters as +inf, so it lies beyond every
/// latency limit. With no samples the result is {0, 0, 0} (unsupported).
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

/// The median is always reported (with its sample count); the ten-beyond
/// rule applies to tails.
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

/// Nearest-rank percentile of the histogram delta `after - before`, where
/// bucket i holds values in [i << shift, (i + 1) << shift) nanoseconds.
/// The value is the selected bucket's upper edge in microseconds, so it
/// overstates the true percentile by less than one bucket width; `beyond`
/// counts samples in strictly higher buckets.
inline Percentile hist_delta_percentile(const std::vector<std::uint64_t>& before,
                                        const std::vector<std::uint64_t>& after,
                                        int bucket_shift_ns, double q) {
  Percentile p;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < after.size(); ++i) total += after[i] - before[i];
  p.n = static_cast<std::size_t>(total);
  if (total == 0) return p;
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::clamp<std::uint64_t>(rank, 1, total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    seen += after[i] - before[i];
    if (seen >= rank) {
      p.value = static_cast<double>(static_cast<std::uint64_t>(i + 1)
                                    << bucket_shift_ns) /
                1e3;
      p.beyond = static_cast<std::size_t>(total - seen);
      return p;
    }
  }
  return p;
}

/// Open-loop send schedule at a fixed rate: request i is due i / rate
/// seconds after the window starts, whether or not earlier requests have
/// been answered. Latency is measured from the due time, so a stall also
/// charges the requests it delays.
struct OpenLoopSchedule {
  double rate_per_s = 1.0;

  Ns due_ns(std::uint64_t i) const {
    return static_cast<Ns>(
        std::llround(static_cast<double>(i) * 1e9 / rate_per_s));
  }
  /// Requests due at or before `elapsed` ns (0 before the window starts).
  std::uint64_t due_by(Ns elapsed) const {
    if (elapsed < 0) return 0;
    std::uint64_t n = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(elapsed) * rate_per_s / 1e9)) + 1;
    // Guard the floating-point boundary in both directions.
    while (n > 0 && due_ns(n - 1) > elapsed) --n;
    while (due_ns(n) <= elapsed) ++n;
    return n;
  }
  /// Requests due within a window of `seconds`: due times in [0, seconds).
  std::uint64_t count(double seconds) const {
    const Ns end = static_cast<Ns>(std::llround(seconds * 1e9));
    return end <= 0 ? 0 : due_by(end - 1);
  }
};

/// One recorded span. `id` is 1-based; parent 0 means a root span. Spans of
/// one query or event share `op`.
struct Span {
  std::string name;
  std::uint64_t op = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  Ns start = 0;
  Ns end = 0;
};

struct SelfTime {
  std::uint64_t count = 0;
  Ns total = 0;  // summed span durations
  Ns self = 0;   // durations minus the time covered by child spans
};

/// Per span name: count, total and self time. A span's self time is its
/// duration minus the union of its children's intervals clipped to it, so
/// overlapping children (parallel work) are not subtracted twice.
inline std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<Ns, Ns>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    SelfTime& t = out[s.name];
    const Ns dur = std::max<Ns>(0, s.end - s.start);
    Ns covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<Ns, Ns>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      Ns cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    ++t.count;
    t.total += dur;
    t.self += dur - covered;
  }
  return out;
}

}  // namespace perfbench
