// serve-mix: an open loop of seeded Poisson arrivals into one in-process
// ewalkd Server (Server::handle_line), the daemon's request path without
// a socket. One load-generating thread sends each request when it is due,
// whether or not earlier ones finished; latency runs from the due time to
// the response. The store's byte budget is smaller than the mix's key set,
// so fresh keys miss, insert and evict while repeated keys hit.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "engine/driver.hpp"
#include "engine/registry.hpp"
#include "graph/algorithms.hpp"
#include "replay.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// The hot keys need ~27 MiB; the rest of the budget holds ~190 fresh keys,
// so fresh keys evict each other while the heavy n=65536 keys (each
// requested every few seconds) stay resident. With a tighter budget they
// were evicted in some runs and not others; an evicted heavy key costs a
// rebuild that lifts its request into the top 1% and moves p99.
constexpr std::uint64_t kCacheBytes = 64ull << 20;
constexpr double kMainRate = 150.0;  // requests/s of the measured phase
// The ladder: the measured phase is its first rung; the others re-run the
// mix at these rates, 1000 requests each so every rung has a real p99,
// until a rung is not sustained. Between that rung and the one below it,
// kRefineSteps bisection rungs (at geometric midpoints) narrow the knee to
// ~4%: with the rungs alone, the knee hopping across one 15% step on a
// slightly slower host moved max_rate_rps by 26% (IQR/median over 10 runs).
const std::vector<double> kLadder = {300, 400, 460, 530, 610, 700, 800, 920, 1060, 1220, 1400};
constexpr std::size_t kRefineSteps = 2;
constexpr std::size_t kRungRequests = 1000;
// The latency limit on p99: five times the batch requests' service, so a
// rung fails on a growing queue, not on a slower host. At 100 ms the
// batch p99 of a slow host's low rungs already neared the limit, and
// max_rate_rps halved.
constexpr double kLimitMs = 250.0;
// The admission cap exceeds every phase's size, so nothing is rejected and
// a rung is decided by its p99 and completion rate. Under the daemon's
// default cap of 64, one host stall of ~0.1 s near the knee queued 64
// requests, rejected the next ones and failed the rung at once.
constexpr std::uint32_t kMaxInflight = 1u << 16;

/// One kind of request in the mix. Requests draw their key (the seed,
/// which names the cached graph) from a small pool of hot seeds shared
/// with other entries of the same graph, or a fresh seed each time.
struct MixEntry {
  const char* name;
  double weight;
  const char* graph;
  const char* process;
  std::vector<std::pair<const char*, const char*>> params;
  std::uint32_t trials;
  int pool;  // key pool id; 0 = a fresh key per request
  std::uint32_t pool_size;
  bool analysis;
};

// The batch entry (96 trials on a hot n=4096 key, ~50 ms) is exactly 2% of
// every phase and the slowest request by far, so the p99 is its median
// latency. Its trials fit in L2, so it moves with the host's CPU speed as
// the small requests do. When the p99 fell on the L3-bound n=65536
// requests instead, co-tenants' memory traffic moved it twice as much as
// the p50 from one run to the next.
const std::vector<MixEntry>& mix() {
  static const std::vector<MixEntry> entries = {
      {"eprocess-rp4096", 30, "regular-pairing", "eprocess", {{"n", "4096"}, {"r", "4"}}, 4, 1, 8, false},
      {"srw-rp4096", 18, "regular-pairing", "srw", {{"n", "4096"}, {"r", "4"}}, 2, 1, 8, false},
      {"eprocess-lps-5-29", 10, "lps", "eprocess", {{"p", "5"}, {"q", "29"}}, 2, 2, 4, false},
      {"eprocess-complete-1000", 8, "complete", "eprocess", {{"n", "1000"}}, 1, 3, 1, false},
      {"coalescing-srw-rp16384", 8, "regular-pairing", "coalescing-srw",
       {{"n", "16384"}, {"r", "4"}}, 2, 4, 4, false},
      {"herman-cycle-243", 8, "cycle", "herman", {{"n", "243"}, {"tokens", "3"}}, 4, 5, 4, false},
      {"fresh-eprocess-rp4096", 12, "regular-pairing", "eprocess", {{"n", "4096"}, {"r", "4"}}, 2, 0, 0, false},
      {"batch-eprocess-rp4096", 2, "regular-pairing", "eprocess", {{"n", "4096"}, {"r", "4"}}, 96, 1, 8, false},
      {"heavy-eprocess-rp65536", 1, "regular-pairing", "eprocess", {{"n", "65536"}, {"r", "4"}}, 1, 6, 2, false},
      {"analysis-rp1024", 2, "regular-pairing", "eprocess", {{"n", "1024"}, {"r", "4"}}, 1, 7, 2, true},
  };
  return entries;
}

const MixEntry& entry(const std::string& name) {
  for (const MixEntry& e : mix())
    if (name == e.name) return e;
  throw std::invalid_argument("no mix entry " + name);
}

std::string request_line(const MixEntry& e, std::uint64_t seed, const std::string& id) {
  ewalk::ParamMap params{{"graph", e.graph},
                         {"process", e.process},
                         {"trials", std::to_string(e.trials)},
                         {"threads", "1"},
                         {"seed", std::to_string(seed)},
                         {"analysis", e.analysis ? "true" : "false"}};
  for (const auto& [k, v] : e.params) params.set(k, v);
  ewalk::ServerRequest req;
  req.id = id;
  req.run = ewalk::run_request_from_params(params);
  return ewalk::serialize_request(req);
}

std::uint64_t pool_seed(std::uint64_t seed, int pool, std::uint32_t k) {
  return derive_seed(seed, 1000 * static_cast<std::uint64_t>(pool) + k);
}

/// `count` request lines from the mix, a pure function of `seed` and
/// `stream`: each entry appears in proportion to its weight (a shuffled
/// deck, so every phase of a size has the same composition), keys drawn
/// from the entry's pool; fresh keys never repeat across streams. `kinds`
/// (if given) receives each request's mix entry index.
std::vector<std::string> draw_requests(std::uint64_t seed, std::uint64_t stream,
                                       std::size_t count,
                                       std::vector<std::size_t>* kinds = nullptr) {
  double total = 0.0;
  for (const MixEntry& e : mix()) total += e.weight;
  std::vector<std::size_t> deck;
  for (std::size_t k = 0; k < mix().size(); ++k) {
    const auto copies = static_cast<std::size_t>(
        std::lround(static_cast<double>(count) * mix()[k].weight / total));
    deck.insert(deck.end(), copies, k);
  }
  deck.resize(count, 0);  // rounding slack goes to the first entry
  std::mt19937_64 gen(derive_seed(seed, 77 + stream));
  std::shuffle(deck.begin(), deck.end(), gen);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < count; ++i) {
    const MixEntry& e = mix()[deck[i]];
    if (kinds) kinds->push_back(deck[i]);
    const std::uint64_t key =
        e.pool == 0 ? derive_seed(seed, (stream + 1) * 10000000 + i)
                    : pool_seed(seed, e.pool, static_cast<std::uint32_t>(gen() % e.pool_size));
    std::string id = "s";
    id += std::to_string(stream);
    id += '-';
    id += std::to_string(i);
    lines.push_back(request_line(e, key, id));
  }
  return lines;
}

/// One line per hot key of every pooled entry, trials 1, no analysis: the
/// graphs a warm daemon has already built. Analysis blocks stay cold, so
/// the measured phase sees their misses (~35 ms each) as well as hits.
std::vector<std::string> warm_lines(std::uint64_t seed) {
  std::vector<std::string> lines;
  for (const MixEntry& e : mix()) {
    if (e.pool == 0) continue;
    MixEntry warm = e;
    warm.trials = 1;
    warm.analysis = false;
    for (std::uint32_t k = 0; k < e.pool_size; ++k)
      lines.push_back(request_line(warm, pool_seed(seed, e.pool, k), "warm"));
  }
  return lines;
}

std::unique_ptr<ewalk::Server> warm_server(std::uint64_t seed) {
  auto server = std::make_unique<ewalk::Server>(
      ewalk::ServerConfig{kCacheBytes, kMaxInflight, kThreads});
  const ewalk::Server::Sink ignore = [](const std::string&) {};
  for (const std::string& line : warm_lines(seed)) server->handle_line(line, ignore);
  server->drain();
  return server;
}

void warm_store(ewalk::GraphStore& store, std::uint64_t seed) {
  for (const std::string& line : warm_lines(seed)) {
    const ewalk::RunRequest req = ewalk::parse_request(line).run;
    store.acquire(req.graph, req.params, req.seed);
  }
}

/// What one open-loop phase observed, request order.
struct Phase {
  std::vector<std::string> lines;
  OpenLoopTiming timing;
  std::vector<std::string> responses;
  double wall_s = 0.0;  // first due time to last response
};

/// Sends `lines` at the Poisson `rate` from this thread and waits for all
/// responses.
Phase open_loop(ewalk::Server& server, std::vector<std::string> lines, double rate,
                std::uint64_t schedule_seed) {
  Phase ph;
  ph.lines = std::move(lines);
  const std::size_t n = ph.lines.size();
  ph.timing.scheduled = poisson_schedule(rate, n, schedule_seed);
  ph.timing.sent.assign(n, 0.0);
  ph.timing.completed.assign(n, 0.0);
  ph.responses.assign(n, "");
  const Clock::time_point t0 = Clock::now();
  const auto since = [t0] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(ph.timing.scheduled[i])));
    ph.timing.sent[i] = since();
    double* done = &ph.timing.completed[i];
    std::string* response = &ph.responses[i];
    server.handle_line(ph.lines[i], [done, response, since](const std::string& line) {
      if (line.find("\"status\":\"queued\"") != std::string::npos) return;
      *done = since();
      *response = line;
    });
  }
  server.drain();
  ph.wall_s = *std::max_element(ph.timing.completed.begin(), ph.timing.completed.end());
  return ph;
}

struct ResponseInfo {
  bool ok = false;
  bool rejected = false;
  std::uint64_t unfinished = 0;
  double total_steps = 0.0;
};

ResponseInfo inspect(const std::string& line) {
  ResponseInfo info;
  const ewalk::JsonValue v = ewalk::parse_json(line);
  for (const auto& [key, value] : v.object) {
    if (key == "status") info.ok = value.string == "ok";
    if (key == "error") info.rejected = value.string.rfind("server busy", 0) == 0;
    if (key == "unfinished") info.unfinished = std::stoull(value.raw);
    if (key == "total_steps") info.total_steps = std::stod(value.raw);
  }
  return info;
}

std::vector<Outcome> outcomes(const Phase& ph) {
  const std::vector<double> lat = open_loop_latencies_ms(ph.timing);
  std::vector<Outcome> out;
  for (std::size_t i = 0; i < ph.lines.size(); ++i) {
    const ResponseInfo r = inspect(ph.responses[i]);
    out.push_back(Outcome{r.ok, r.rejected, r.unfinished > 0, lat[i]});
  }
  return out;
}

double phase_steps(const Phase& ph) {
  double steps = 0.0;
  for (const std::string& line : ph.responses) steps += inspect(line).total_steps;
  return steps;
}

std::string with_id(const std::string& stripped, const std::string& id) {
  // Result lines open with {"id":"<id>"; the reference ran with id "".
  return "{\"id\":" + ewalk::json_quote(id) + stripped.substr(std::string("{\"id\":\"\"").size());
}

/// The byte-for-byte check: every ok response equals a direct execute_run
/// of the same request (timing and cache-state fields stripped). Identical
/// requests are executed once, in parallel across distinct requests.
bool check_responses(const std::vector<const Phase*>& phases, std::size_t* compared) {
  std::map<std::string, std::string> expected;  // request without id -> result
  for (const Phase* ph : phases)
    for (const std::string& line : ph->lines) {
      ewalk::ServerRequest req = ewalk::parse_request(line);
      req.id.clear();
      req.run.id.clear();
      req.run.params.erase("id");
      expected.emplace(ewalk::serialize_request(req), "");
    }
  {
    ewalk::TaskScope scope(kThreads);
    for (auto& [line, result] : expected) {
      const std::string* l = &line;
      std::string* out = &result;
      scope.spawn([l, out] {
        *out = strip_volatile_fields(
            ewalk::serialize_run_result(ewalk::execute_run(ewalk::parse_request(*l).run)));
      });
    }
    scope.wait();
  }
  bool all = true;
  *compared = 0;
  for (const Phase* ph : phases)
    for (std::size_t i = 0; i < ph->lines.size(); ++i) {
      if (!inspect(ph->responses[i]).ok) continue;
      ewalk::ServerRequest req = ewalk::parse_request(ph->lines[i]);
      const std::string id = req.id;
      req.id.clear();
      req.run.id.clear();
      req.run.params.erase("id");
      const std::string& want = expected.at(ewalk::serialize_request(req));
      all = all && with_id(want, id) == strip_volatile_fields(ph->responses[i]);
      ++*compared;
    }
  return all;
}

void print_mix() {
  std::printf("mix (weight: request):");
  for (const MixEntry& e : mix()) std::printf(" %g:%s", e.weight, e.name);
  std::printf("\n");
}

Report untraced(const Options& opt) {
  Report report;
  print_mix();
  // Set-up: drawing the inputs, then a Server whose store already holds
  // every hot graph (a warm daemon). Built five times; the last one serves.
  // At least kRungRequests, so the phase has a real p99 and can open the
  // ladder.
  const std::size_t main_count = std::max(
      kRungRequests, static_cast<std::size_t>(kMainRate * opt.seconds * 2 / 3));
  std::vector<std::string> main_lines;
  std::vector<std::size_t> kinds;
  std::unique_ptr<ewalk::Server> server;
  const double setup_s = median_setup_seconds(5, [&] {
    server.reset();
    kinds.clear();
    main_lines = draw_requests(opt.seed, 0, main_count, &kinds);
    server = warm_server(opt.seed);
  });
  const ewalk::GraphStoreStats warm = server->store().stats();
  std::printf("warm store: %llu graphs, %.1f MiB of the %llu MiB budget\n",
              static_cast<unsigned long long>(warm.entries),
              static_cast<double>(warm.bytes) / (1 << 20),
              static_cast<unsigned long long>(kCacheBytes >> 20));

  const Phase main = open_loop(*server, main_lines, kMainRate, derive_seed(opt.seed, 1));
  const std::vector<Outcome> main_out = outcomes(main);
  const FailureCount fails = count_failures(main_out, kLimitMs);
  report.count(fails.attempted, fails.failed);
  std::vector<double> lat;
  for (const Outcome& o : main_out) lat.push_back(o.latency_ms);
  const TailPercentile p99 = tail_percentile(lat, 99.0);
  const TailPercentile lag = tail_percentile(generator_lag_ms(main.timing), 99.0);

  // The ladder: the same mix at rising rates, each rung from an empty queue.
  const auto rung_of = [](const Phase& ph) {
    return Rung{offered_rate(ph.timing), achieved_rate(ph.timing),
                tail_percentile(latencies_failures_infinite(outcomes(ph)), 99.0)};
  };
  // A rung that fails is run once more on fresh requests and counts as not
  // sustained only if both attempts fail: one host stall on this shared
  // box can push a single 2-second rung past the limit.
  std::vector<Rung> rungs = {rung_of(main)};
  std::vector<Phase> ladder;
  const auto run_rung = [&](double rate, std::uint64_t stream) {
    for (std::uint64_t attempt = 0;; ++attempt) {
      const std::uint64_t s = stream + 100 * attempt;
      ladder.push_back(open_loop(*server, draw_requests(opt.seed, s, kRungRequests), rate,
                                 derive_seed(opt.seed, 10 + s)));
      const Rung r = rung_of(ladder.back());
      const bool ok = rung_passes(r, kLimitMs);
      std::printf("  rung %.0f/s attempt %llu: achieved %.1f/s, p%g %.3f ms (failures "
                  "count as infinitely late) -> %s\n",
                  r.offered_rps, static_cast<unsigned long long>(attempt + 1),
                  r.achieved_rps, r.p99.p, r.p99.value, ok ? "sustained" : "not sustained");
      if (ok || attempt == 1) {
        rungs.push_back(r);
        return ok;
      }
    }
  };
  double low = kMainRate, high = 0.0;
  for (std::size_t k = 0; k < kLadder.size() && rung_passes(rungs.front(), kLimitMs); ++k) {
    if (!run_rung(kLadder[k], 1 + k)) {
      high = kLadder[k];
      break;
    }
    low = kLadder[k];
  }
  for (std::uint64_t j = 0; high > 0.0 && j < kRefineSteps; ++j) {
    const double mid = std::sqrt(low * high);
    (run_rung(mid, 500 + 10 * j) ? low : high) = mid;
  }
  std::sort(rungs.begin(), rungs.end(),
            [](const Rung& a, const Rung& b) { return a.offered_rps < b.offered_rps; });
  const double max_rate = max_sustained_rate(rungs, kLimitMs);
  const ewalk::GraphStoreStats store = server->store().stats();

  std::vector<const Phase*> phases = {&main};
  for (const Phase& ph : ladder) phases.push_back(&ph);
  std::size_t compared = 0;
  const bool same = check_responses(phases, &compared);
  report.check(same, "every ok response equals a direct execute_run byte for byte (" +
                         std::to_string(compared) + " responses, timing and cache_hit "
                         "stripped)");

  std::printf("serve-mix: %zu requests at %.0f/s (open loop, Poisson), %u threads, "
              "cache budget %llu MiB\n",
              main.lines.size(), kMainRate, kThreads,
              static_cast<unsigned long long>(kCacheBytes >> 20));
  std::printf("latency p50 %.3f ms, p%g %.3f ms over %llu requests; limit %.0f ms; "
              "slo_miss_frac %.5f; failed_frac %.5f; generator lag p%g %.3f ms\n",
              median(lat), p99.p, p99.value, static_cast<unsigned long long>(p99.count),
              kLimitMs, fails.slo_miss_frac(), fails.failed_frac(), lag.p, lag.value);
  std::printf("  measured phase as the first rung: p%g %.3f ms -> %s; max_rate_rps %.1f\n",
              rungs.front().p99.p, rungs.front().p99.value,
              rung_passes(rungs.front(), kLimitMs) ? "sustained" : "not sustained", max_rate);
  for (std::size_t k = 0; k < mix().size(); ++k) {
    std::vector<double> l;
    for (std::size_t i = 0; i < lat.size(); ++i)
      if (kinds[i] == k) l.push_back(lat[i]);
    const TailPercentile t = tail_percentile(l, 99.0);
    std::printf("  %-24s %5zu requests, p50 %8.3f ms, p%g %8.3f ms\n", mix()[k].name,
                l.size(), median(l), t.p, t.value);
  }
  std::printf("store: %llu hits, %llu misses, %llu evictions, %llu coalesced\n",
              static_cast<unsigned long long>(store.hits),
              static_cast<unsigned long long>(store.misses),
              static_cast<unsigned long long>(store.evictions),
              static_cast<unsigned long long>(store.coalesced));
  report.set("setup_s", setup_s);
  report.set("wall_s", main.wall_s);
  report.set("steps_per_s", phase_steps(main) / main.wall_s);
  report.set("latency_p50_ms", median(lat));
  report.set("latency_p99_ms", p99.value);
  report.set("max_rate_rps", max_rate);
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

/// Steps per second of `process` on K_1000 over a fixed step count (the
/// known E-process vs SRW gap on dense graphs).
double complete_rate(const ewalk::Graph& g, const char* process, std::uint64_t seed) {
  constexpr std::uint64_t kSteps = 2000000;
  ewalk::Rng rng(seed);
  auto walk = ewalk::ProcessRegistry::instance().create(process, g, {}, rng);
  ewalk::WallTimer t;
  ewalk::run_until_process(*walk, rng, [](const ewalk::WalkProcess&) { return false; },
                           kSteps, kSteps);
  return static_cast<double>(walk->steps()) / t.seconds();
}

Report traced(const Options& opt) {
  Report report;
  print_mix();
  const std::size_t count = static_cast<std::size_t>(kMainRate * std::max(1.0, opt.seconds / 4));
  const std::vector<std::string> lines = draw_requests(opt.seed, 0, count);
  std::unique_ptr<ewalk::Server> server = warm_server(opt.seed);
  const Phase main = open_loop(*server, lines, kMainRate, derive_seed(opt.seed, 1));
  const std::vector<Outcome> main_out = outcomes(main);
  const FailureCount fails = count_failures(main_out, kLimitMs);
  report.count(fails.attempted, fails.failed);
  const ewalk::GraphStoreStats served = server->store().stats();
  server.reset();

  // Serial replays of the same requests on two warm stores: execute_run
  // untraced, and the traced re-enactment, in alternating order per
  // request so drift on a shared box cancels out of the overhead.
  ewalk::GraphStore plain_store(kCacheBytes), store(kCacheBytes);
  warm_store(plain_store, opt.seed);
  warm_store(store, opt.seed);
  Tracer tracer;
  ReplayStats stats;
  std::vector<double> service_s, parse_s, serialize_s, traced_s;
  bool same = true;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto plain = [&] {
      ewalk::WallTimer t;
      const ewalk::RunRequest req = ewalk::parse_request(lines[i]).run;
      ewalk::serialize_run_result(ewalk::execute_run(req, &plain_store));
      service_s.push_back(t.seconds());
    };
    if (i % 2 == 0) plain();
    const auto rid = static_cast<std::int64_t>(i);
    std::int64_t root_id;
    {
      Scoped root(&tracer, "request", -1, rid);
      root_id = root.id();
      ewalk::ServerRequest req;
      {
        Scoped s(&tracer, "serve.protocol.parse", root_id, rid);
        ewalk::WallTimer t;
        req = ewalk::parse_request(lines[i]);
        parse_s.push_back(t.seconds());
      }
      const ewalk::RunResult r = replay_execute_run(req.run, &store, tracer, root_id, rid, stats);
      std::string out;
      {
        Scoped s(&tracer, "serve.protocol.serialize", root_id, rid);
        ewalk::WallTimer t;
        out = ewalk::serialize_run_result(r);
        serialize_s.push_back(t.seconds());
      }
      if (inspect(main.responses[i]).ok)
        same = same && strip_volatile_fields(out) == strip_volatile_fields(main.responses[i]);
    }
    traced_s.push_back(tracer.duration(root_id));
    if (i % 2 == 1) plain();
  }
  report.check(same, "traced replay reproduces every ok response byte for byte");

  // Off-path re-measures: the graph layer on one fresh key, K_1000 rates.
  const ewalk::RunRequest fresh = ewalk::parse_request(
      request_line(entry("fresh-eprocess-rp4096"), derive_seed(opt.seed, 424242), "g")).run;
  ewalk::Rng grng(fresh.seed);
  const ewalk::Graph g4096 =
      ewalk::GeneratorRegistry::instance().create(fresh.graph, fresh.params, grng);
  std::vector<double> gen;
  for (int i = 0; i < 5; ++i) {
    ewalk::Rng rng(fresh.seed);
    ewalk::WallTimer t;
    ewalk::GeneratorRegistry::instance().create(fresh.graph, fresh.params, rng);
    gen.push_back(t.seconds());
  }
  const GraphLayerTimes graph_layer = measure_graph_layer(g4096, 5);
  ewalk::Rng krng(1);
  const ewalk::Graph k1000 =
      ewalk::GeneratorRegistry::instance().create("complete", ewalk::ParamMap{{"n", "1000"}}, krng);
  const double k_ep = complete_rate(k1000, "eprocess", derive_seed(opt.seed, 31));
  const double k_srw = complete_rate(k1000, "srw", derive_seed(opt.seed, 32));
  const ExecutorCost exec = measure_executor(kThreads);

  const std::vector<double> lat = open_loop_latencies_ms(main.timing);
  std::vector<double> waits;
  for (std::size_t i = 0; i < lat.size(); ++i)
    waits.push_back(std::max(0.0, lat[i] - service_s[i] * 1e3));
  const double create_sum = sum(stats.create_s), walk_sum = sum(stats.walk_s);
  const double lookups = static_cast<double>(served.hits + served.misses);

  report.set("graph.generate_s", median(gen));
  report.set("graph.csr_build_s", graph_layer.csr_build_s);
  report.set("graph.connectivity_s", graph_layer.connectivity_s);
  report.set("graph.bytes", static_cast<double>(csr_bytes(k1000)));
  report.set("engine.create_s", mean(stats.create_s));
  report.set("engine.walk_s", mean(stats.walk_s));
  report.set("engine.create_frac", create_sum / (create_sum + walk_sum));
  report.set("engine.steps", stats.total_steps);
  stats.steps.publish(report);
  report.set("engine.complete.eprocess_steps_per_s", k_ep);
  report.set("engine.complete.srw_steps_per_s", k_srw);
  report.set("covertime.run_trials_s", mean(stats.run_trials_s));
  report.set("covertime.parallel_eff", (create_sum + walk_sum) / sum(stats.run_trials_s));
  report.set("util.executor.spawn_wait_us", exec.flat_us);
  report.set("util.executor.nested_spawn_wait_us", exec.nested_us);
  report.set("serve.protocol.parse_us", mean(parse_s) * 1e6);
  report.set("serve.protocol.serialize_us", mean(serialize_s) * 1e6);
  report.set("serve.store.acquire_hit_us", mean(stats.acquire_hit_s) * 1e6);
  report.set("serve.store.acquire_miss_ms", mean(stats.acquire_miss_s) * 1e3);
  report.set("serve.store.hit_ratio", lookups > 0 ? served.hits / lookups : 0.0);
  report.set("serve.store.evictions", static_cast<double>(served.evictions));
  report.set("serve.store.coalesced", static_cast<double>(served.coalesced));
  report.set("serve.request.probe_s", mean(stats.probe_s));
  report.set("serve.execute_run_ms", mean(service_s) * 1e3);
  report.set("serve.queue_wait_ms", mean(waits));
  std::uint64_t rejected = 0;
  for (const Outcome& o : main_out) rejected += o.rejected;
  report.set("serve.rejected", static_cast<double>(rejected));
  report.set("analysis.compute_ms", mean(stats.analysis_miss_s) * 1e3);
  report.set("loadgen.lag_p99_ms", tail_percentile(generator_lag_ms(main.timing), 99.0).value);
  report.set("failed_frac", fails.failed_frac());
  report.set("slo_miss_frac", fails.slo_miss_frac());
  report.set("trace.overhead_frac", sum(traced_s) / sum(service_s) - 1.0);

  print_layer_table(tracer);
  const auto totals = tracer.totals();
  const double nreq = static_cast<double>(lines.size());
  const auto per_req_self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s / nreq * 1e3;
  };
  std::printf("reconciliation (serve-mix, %zu requests): mean latency %.3f ms = untraced "
              "service %.3f ms + queueing %.3f ms\n",
              lines.size(), mean(lat), mean(service_s) * 1e3, mean(waits));
  const double traced_ms = mean(traced_s) * 1e3;
  std::printf("  traced service %.3f ms per request (traced %+.1f%%: span overhead plus "
              "drift), self time per request:\n",
              traced_ms, 100.0 * (sum(traced_s) / sum(service_s) - 1.0));
  double covered = 0.0;
  for (const char* name :
       {"serve.protocol.parse", "serve.store.acquire", "serve.request.probe",
        "covertime.run_trials", "engine.create", "engine.walk", "analysis.compute",
        "serve.protocol.serialize", "request"}) {
    const double ms = per_req_self(name);
    covered += ms;
    std::printf("  %-26s %9.4f ms\n", name, ms);
  }
  std::printf("  %-26s %9.4f ms (the replay's glue between layer calls is the "
              "'request' self time above)\n",
              "unexplained gap", traced_ms - covered);
  std::printf("known gap: K_1000 eprocess %.3g vs srw %.3g steps/s (ratio %.2f)\n", k_ep,
              k_srw, k_srw / k_ep);
  write_trace(tracer, opt);
  return report;
}

}  // namespace

Report run_serve_mix(const Options& opt) {
  return opt.trace ? traced(opt) : untraced(opt);
}

}  // namespace perfbench
