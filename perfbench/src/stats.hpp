// The benchmark's own statistics: percentiles under the reporting rule,
// open-loop schedules and lateness, the rate-ladder decision, and failure
// counting. Header-only and free of ewalk types so tests/stats_test.cpp
// can pin every rule in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace perfbench {

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Arithmetic mean; 0 for no samples.
inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/// Nearest rank ceil(p/100 * n), tolerant of the rounding in p/100 * n.
inline double nearest_rank(double p, std::uint64_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

/// Nearest-rank percentile of `samples` (p in [0, 100]); 0 for no samples.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = nearest_rank(p, samples.size());
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[idx];
}

/// Median (the 50th percentile by the same nearest-rank rule).
inline double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

/// Number of samples strictly beyond percentile `p` of `n` samples.
inline std::uint64_t samples_beyond(std::uint64_t n, double p) {
  return n - static_cast<std::uint64_t>(std::min<double>(nearest_rank(p, n), static_cast<double>(n)));
}

/// A tail latency as the reporting rule allows it: the highest candidate
/// percentile, up to `highest`, with at least kMinBeyond samples beyond it,
/// so the value never claims more precision than the sample count
/// supports. When even the median has fewer, the maximum is reported
/// (`p` = 100) — an upper bound on every percentile.
struct TailPercentile {
  double p = 100.0;        ///< which percentile `value` is
  double value = 0.0;      ///< the percentile's value
  std::uint64_t count = 0; ///< samples it was taken over
};

inline constexpr std::uint64_t kMinBeyond = 10;

inline TailPercentile tail_percentile(const std::vector<double>& samples,
                                      double highest = 99.0) {
  TailPercentile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (p <= highest && samples_beyond(samples.size(), p) >= kMinBeyond) {
      out.p = p;
      out.value = percentile(samples, p);
      return out;
    }
  }
  out.value = *std::max_element(samples.begin(), samples.end());
  return out;
}

/// Open-loop arrival times in seconds from 0: `count` Poisson arrivals at
/// `rate` per second, conditioned on the last one falling at exactly
/// count / rate (exponential gaps rescaled to that sum), so every phase of
/// a given size offers the same mean rate over the same window. A pure
/// function of `seed`.
inline std::vector<double> poisson_schedule(double rate, std::size_t count,
                                            std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> at(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(gen);
    at[i] = t;
  }
  const double scale = static_cast<double>(count) / rate / t;
  for (double& a : at) a *= scale;
  return at;
}

/// Per-request timing of one open-loop phase, all in seconds on one clock.
struct OpenLoopTiming {
  std::vector<double> scheduled;  ///< when each request was due
  std::vector<double> sent;       ///< when the generator actually sent it
  std::vector<double> completed;  ///< when its response arrived
};

/// Latency of each request measured from when it was DUE, not from when it
/// was sent, so a generator or server stall charges every request it
/// delays. Milliseconds, request order.
inline std::vector<double> open_loop_latencies_ms(const OpenLoopTiming& t) {
  std::vector<double> out(t.scheduled.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = (t.completed[i] - t.scheduled[i]) * 1e3;
  return out;
}

/// How late the generator sent each request (never negative), milliseconds.
inline std::vector<double> generator_lag_ms(const OpenLoopTiming& t) {
  std::vector<double> out(t.scheduled.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = std::max(0.0, t.sent[i] - t.scheduled[i]) * 1e3;
  return out;
}

/// Completions per second over the phase: requests ÷ (last completion −
/// first due time). Falls below the offered rate when a backlog builds.
inline double achieved_rate(const OpenLoopTiming& t) {
  if (t.scheduled.empty()) return 0.0;
  const double first = *std::min_element(t.scheduled.begin(), t.scheduled.end());
  const double last = *std::max_element(t.completed.begin(), t.completed.end());
  return last > first ? static_cast<double>(t.scheduled.size()) / (last - first)
                      : 0.0;
}

/// Offered rate as realised by the schedule: requests ÷ (last − first due).
inline double offered_rate(const OpenLoopTiming& t) {
  if (t.scheduled.size() < 2) return 0.0;
  const auto [lo, hi] = std::minmax_element(t.scheduled.begin(), t.scheduled.end());
  return *hi > *lo ? static_cast<double>(t.scheduled.size()) / (*hi - *lo) : 0.0;
}

/// One outcome of an attempted unit of work. A rejected or failed request,
/// or a trial clamped to its step budget, is a failure; every failure also
/// counts as missing the latency limit.
struct Outcome {
  bool ok = true;           ///< produced a result
  bool rejected = false;    ///< refused by admission control
  bool clamped = false;     ///< some trial hit the step budget
  double latency_ms = 0.0;  ///< only meaningful for served requests
};

inline bool failed(const Outcome& o) { return !o.ok || o.rejected || o.clamped; }

struct FailureCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t slo_missed = 0;  ///< failed, or slower than the limit
  double failed_frac() const {
    return attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  }
  double slo_miss_frac() const {
    return attempted ? static_cast<double>(slo_missed) / static_cast<double>(attempted)
                     : 0.0;
  }
};

inline FailureCount count_failures(const std::vector<Outcome>& outcomes,
                                   double limit_ms) {
  FailureCount c;
  c.attempted = outcomes.size();
  for (const Outcome& o : outcomes) {
    const bool f = failed(o);
    c.failed += f;
    c.slo_missed += f || o.latency_ms > limit_ms;
  }
  return c;
}

/// Latencies for tail statistics: a failed request counts as missing every
/// limit, so it enters as +infinity.
inline std::vector<double> latencies_failures_infinite(const std::vector<Outcome>& outcomes) {
  std::vector<double> out;
  for (const Outcome& o : outcomes)
    out.push_back(failed(o) ? std::numeric_limits<double>::infinity() : o.latency_ms);
  return out;
}

/// What one rung of the rate ladder measured.
struct Rung {
  double offered_rps = 0.0;   ///< offered rate as realised (offered_rate)
  double achieved_rps = 0.0;  ///< completions per second (achieved_rate)
  TailPercentile p99;         ///< tail with failures as +infinity
};

/// A rung sustains its rate when its p99 is a real p99 within `limit_ms`
/// (failed requests count as infinitely late) and completions kept up with
/// arrivals: an achieved rate below `keep_up` of the offered one means the
/// backlog grew.
inline bool rung_passes(const Rung& r, double limit_ms, double keep_up = 0.9) {
  return r.p99.p == 99.0 && r.p99.value <= limit_ms &&
         r.achieved_rps >= keep_up * r.offered_rps;
}

/// max_rate_rps: the achieved rate of the highest rung such that it and
/// every lower rung pass (rungs in increasing rate order); 0 when the
/// lowest rung already fails.
inline double max_sustained_rate(const std::vector<Rung>& rungs, double limit_ms,
                                 double keep_up = 0.9) {
  double best = 0.0;
  for (const Rung& r : rungs) {
    if (!rung_passes(r, limit_ms, keep_up)) break;
    best = r.achieved_rps;
  }
  return best;
}

}  // namespace perfbench
