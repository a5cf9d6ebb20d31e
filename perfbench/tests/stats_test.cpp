// Tests of the benchmark's own statistics (src/stats.hpp) and the span
// self-time rule (src/trace.hpp). Plain asserts-that-stay-on: every CHECK
// prints its failure and the binary exits non-zero if any failed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b, double tol = 1e-9) { return std::abs(a - b) <= tol; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

using namespace perfbench;

void percentile_rule() {
  // Nearest rank: p50 of 1..10 is 5, p90 is 9, p100 is 10.
  CHECK(near(percentile(one_to(10), 50), 5));
  CHECK(near(percentile(one_to(10), 90), 9));
  CHECK(near(percentile(one_to(10), 100), 10));
  CHECK(near(percentile({}, 50), 0));
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(samples_beyond(999, 99.0) == 9);

  // 1000 samples: exactly 10 beyond p99, so p99 is reportable...
  TailPercentile t = tail_percentile(one_to(1000), 99.0);
  CHECK(t.p == 99.0 && near(t.value, 990) && t.count == 1000);
  // ...999 samples are not enough: the rule steps down to p95.
  t = tail_percentile(one_to(999), 99.0);
  CHECK(t.p == 95.0 && near(t.value, 950));
  // p99.9 needs 10000 samples.
  CHECK(tail_percentile(one_to(10000), 99.9).p == 99.9);  // when asked for
  CHECK(tail_percentile(one_to(9999), 99.9).p == 99.0);
  // 20 samples: only the median qualifies; 19: the maximum is reported.
  CHECK(tail_percentile(one_to(20), 99.0).p == 50.0);
  t = tail_percentile(one_to(19), 99.0);
  CHECK(t.p == 100.0 && near(t.value, 19));
  CHECK(tail_percentile({}, 99.0).count == 0);
}

void open_loop_lateness() {
  // Three requests due at 0, 1, 2 s. The generator stalled until 1.5 s, so
  // the second request went out 0.5 s late; its latency counts from its
  // due time, charging the stall to it.
  OpenLoopTiming t;
  t.scheduled = {0.0, 1.0, 2.0};
  t.sent = {0.0, 1.5, 2.0};
  t.completed = {0.1, 1.6, 2.1};
  const std::vector<double> lat = open_loop_latencies_ms(t);
  CHECK(near(lat[0], 100, 1e-6) && near(lat[1], 600, 1e-6) && near(lat[2], 100, 1e-6));
  const std::vector<double> lag = generator_lag_ms(t);
  CHECK(near(lag[0], 0) && near(lag[1], 500, 1e-6) && near(lag[2], 0));
  // Sent early (clock granularity) never reads as negative lag.
  t.sent[2] = 1.999;
  CHECK(near(generator_lag_ms(t)[2], 0));
  // 3 requests due over 2 s, completed by 2.1 s.
  CHECK(near(offered_rate(t), 1.5));
  CHECK(near(achieved_rate(t), 3 / 2.1));

  // The schedule is a pure function of its seed, ends exactly at
  // count / rate, and its gaps look exponential (coefficient of variation
  // near 1, unlike an evenly spaced schedule).
  const std::vector<double> a = poisson_schedule(200.0, 20000, 7);
  CHECK(a == poisson_schedule(200.0, 20000, 7));
  CHECK(a != poisson_schedule(200.0, 20000, 8));
  CHECK(near(a.back(), 100.0, 1e-9));
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    CHECK(a[i] >= a[i - 1]);
    const double g = a[i] - a[i - 1];
    sum += g;
    sq += g * g;
  }
  const double m = sum / (a.size() - 1);
  const double cv = std::sqrt(sq / (a.size() - 1) - m * m) / m;
  CHECK(cv > 0.95 && cv < 1.05);
}

Rung rung(double rate, double achieved, double p, double p99) {
  return Rung{rate, achieved, TailPercentile{p, p99, 1000}};
}

void ladder_decision() {
  const double limit = 100.0;
  // All three pass: the answer is the top rung's achieved rate.
  CHECK(near(max_sustained_rate({rung(100, 99, 99, 20), rung(200, 198, 99, 40),
                                 rung(400, 395, 99, 90)},
                                limit),
             395));
  // The top rung's p99 breaks the limit.
  CHECK(near(max_sustained_rate({rung(100, 99, 99, 20), rung(200, 198, 99, 40),
                                 rung(400, 390, 99, 250)},
                                limit),
             198));
  // A backlog (completions fall behind arrivals) fails a rung even with a
  // good p99, and stops the ladder: a later passing rung does not count.
  CHECK(near(max_sustained_rate({rung(100, 99, 99, 20), rung(200, 150, 99, 40),
                                 rung(400, 395, 99, 40)},
                                limit),
             99));
  // A tail that is not a real p99 (too few samples) cannot pass.
  CHECK(!rung_passes(rung(200, 198, 95, 40), limit));
  // Nothing sustained.
  CHECK(near(max_sustained_rate({rung(100, 50, 99, 500)}, limit), 0));

  // Failures count as infinitely late: 10 rejections in 1000 requests all
  // lie beyond the p99 rank and leave it finite; an 11th failure reaches it.
  std::vector<Outcome> o(1000, Outcome{true, false, false, 5.0});
  for (int i = 0; i < 10; ++i) o[i].rejected = true;
  CHECK(near(tail_percentile(latencies_failures_infinite(o), 99.0).value, 5.0));
  o[10].ok = false;
  CHECK(std::isinf(tail_percentile(latencies_failures_infinite(o), 99.0).value));
  CHECK(!rung_passes(Rung{200, 199, tail_percentile(latencies_failures_infinite(o), 99.0)},
                     limit));
}

void failure_counting() {
  const std::vector<Outcome> o = {
      {true, false, false, 10.0},   // fine
      {true, false, false, 150.0},  // slow: misses the limit, not a failure
      {false, false, false, 1.0},   // failed
      {false, true, false, 0.5},    // rejected
      {true, false, true, 20.0},    // a trial clamped to its budget
  };
  const FailureCount c = count_failures(o, 100.0);
  CHECK(c.attempted == 5);
  CHECK(c.failed == 3);
  CHECK(c.slo_missed == 4);
  CHECK(near(c.failed_frac(), 0.6));
  CHECK(near(c.slo_miss_frac(), 0.8));
  CHECK(near(count_failures({}, 100.0).failed_frac(), 0));
}

void self_time() {
  // Two parallel children [1,3) and [2,4) inside a parent [0,5): together
  // they cover [1,4), so the parent's self time is 2 s.
  CHECK(near(covered_length({{1, 3}, {2, 4}}, 0, 5), 3));
  CHECK(near(covered_length({{1, 3}, {4, 6}}, 0, 5), 3));  // clipped to the parent
  CHECK(near(covered_length({}, 0, 5), 0));
}

}  // namespace

int main() {
  percentile_rule();
  open_loop_lateness();
  ladder_decision();
  failure_counting();
  self_time();
  if (failures) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all statistics checks passed\n");
  return 0;
}
