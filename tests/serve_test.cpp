// Serving-layer tests: protocol round-trips, GraphStore caching/eviction,
// determinism under caching and concurrency, graceful shutdown, and
// malformed-request resilience (src/serve/).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "engine/token_process.hpp"
#include "graph/generators.hpp"
#include "serve/graph_store.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace ewalk {
namespace {

// A thread-safe response collector usable as a Server::Sink.
struct Collector {
  std::mutex mutex;
  std::vector<std::string> lines;
  Server::Sink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    };
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
};

// Response lines minus the legitimately varying fields: wall_seconds
// (timing) and cache_hit (whether the store was warm). What remains —
// samples, stats, graph shape, budget — is pinned by the determinism
// contract and must be bit-identical across cache states and scheduling.
std::string canonical(const std::string& line) {
  static const std::regex volatile_fields(
      ",\"(wall_seconds\":[0-9.eE+-]+|cache_hit\":(true|false))");
  return std::regex_replace(line, volatile_fields, "");
}

std::vector<std::string> result_lines(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& line : lines)
    if (line.find("\"status\":\"queued\"") == std::string::npos)
      out.push_back(canonical(line));
  std::sort(out.begin(), out.end());
  return out;
}

std::string run_line(const std::string& id, const std::string& graph,
                     const std::string& process, std::uint64_t seed,
                     std::uint32_t n, std::uint32_t trials = 3) {
  std::ostringstream line;
  line << "{\"op\":\"run\",\"id\":\"" << id << "\",\"graph\":\"" << graph
       << "\",\"process\":\"" << process << "\",\"seed\":" << seed
       << ",\"trials\":" << trials << ",\"params\":{\"n\":\"" << n << "\"}}";
  return line.str();
}

// ---- Protocol --------------------------------------------------------------

TEST(Protocol, ParsesRunRequestFields) {
  const auto req = parse_request(
      "{\"op\":\"run\",\"id\":\"r9\",\"graph\":\"regular\","
      "\"process\":\"eprocess\",\"trials\":7,\"threads\":2,\"seed\":"
      "18446744073709551615,\"max-steps\":123,\"target\":\"edges\","
      "\"bundle\":4,\"analysis\":true,\"params\":{\"n\":\"128\",\"r\":\"4\"}}");
  EXPECT_EQ(req.op, "run");
  EXPECT_EQ(req.id, "r9");
  EXPECT_EQ(req.run.graph, "regular");
  EXPECT_EQ(req.run.process, "eprocess");
  EXPECT_EQ(req.run.trials, 7u);
  EXPECT_EQ(req.run.threads, 2u);
  // 64-bit seeds survive: numbers keep their literal spelling, no double.
  EXPECT_EQ(req.run.seed, 18446744073709551615ULL);
  EXPECT_EQ(req.run.max_steps, 123u);
  EXPECT_EQ(req.run.target, RunTarget::kEdges);
  EXPECT_EQ(req.run.bundle_width, 4u);
  EXPECT_TRUE(req.run.analysis);
  EXPECT_EQ(req.run.params.get("n", ""), "128");
  EXPECT_EQ(req.run.params.get("r", ""), "4");
}

// The error run_request_from_params raises for `key` = `value`, or "" when
// the map is accepted.
std::string param_error(const std::string& key, const std::string& value) {
  try {
    run_request_from_params(ParamMap{{key, value}});
  } catch (const std::invalid_argument& ex) {
    return ex.what();
  }
  return "";
}

TEST(RunRequestParams, IntegerFieldsRejectNegativeZeroAndOverflow) {
  // The CLI flag map: "-1" must not wrap to UINT64_MAX, values above
  // UINT32_MAX must not truncate, and zero is no valid bundle width or
  // token target. Each rejection names its flag.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"trials", "0"},          {"trials", "-1"},
      {"trials", "4294967296"}, {"threads", "-1"},
      {"threads", "4294967296"}, {"target-tokens", "-1"},
      {"target-tokens", "0"},   {"target-tokens", "4294967296"},
      {"bundle", "-1"},         {"bundle", "0"},
      {"bundle", "99999999999999999999"}, {"bundle", "wide"}};
  for (const auto& [key, value] : bad) {
    const std::string error = param_error(key, value);
    EXPECT_NE(error.find("--" + key + " must be an integer in ["),
              std::string::npos)
        << key << "=" << value << ": '" << error << "'";
    EXPECT_NE(error.find("'" + value + "'"), std::string::npos) << error;
  }
  // The boundaries themselves are accepted.
  const RunRequest req = run_request_from_params(
      ParamMap{{"trials", "4294967295"}, {"threads", "0"},
               {"target-tokens", "1"}, {"bundle", "4294967295"}});
  EXPECT_EQ(req.trials, 4294967295u);
  EXPECT_EQ(req.threads, 0u);
  EXPECT_EQ(req.target_tokens, 1u);
  EXPECT_EQ(req.bundle_width, 4294967295u);
}

TEST(Protocol, RejectsOutOfRangeIntegerFields) {
  // The same checks on a protocol line, which parses through the same map.
  const std::string base =
      "{\"op\":\"run\",\"graph\":\"cycle\",\"process\":\"coalescing-srw\","
      "\"params\":{\"n\":\"64\",\"tokens\":\"8\"},";
  for (const std::string field :
       {"\"target-tokens\":-1", "\"target-tokens\":0", "\"bundle\":-1",
        "\"bundle\":0", "\"trials\":4294967296"}) {
    try {
      parse_request(base + field + "}");
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& ex) {
      const std::string key = field.substr(1, field.find('"', 1) - 1);
      EXPECT_NE(std::string(ex.what()).find("--" + key + " must be"),
                std::string::npos)
          << ex.what();
    }
  }
  EXPECT_EQ(parse_request(base + "\"target-tokens\":2,\"bundle\":3}")
                .run.bundle_width,
            3u);
}

TEST(Protocol, SerializeParseRoundTrip) {
  const std::string line =
      "{\"op\":\"run\",\"id\":\"a\",\"graph\":\"cycle\",\"process\":\"srw\","
      "\"seed\":42,\"trials\":5,\"params\":{\"n\":\"64\"}}";
  const ServerRequest first = parse_request(line);
  const std::string canonical_line = serialize_request(first);
  const ServerRequest second = parse_request(canonical_line);
  EXPECT_EQ(second.id, first.id);
  EXPECT_EQ(second.run.graph, first.run.graph);
  EXPECT_EQ(second.run.process, first.run.process);
  EXPECT_EQ(second.run.seed, first.run.seed);
  EXPECT_EQ(second.run.trials, first.run.trials);
  EXPECT_EQ(second.run.params.get("n", ""), "64");
  // Serialization is a fixed point: canonical text re-serialises to itself.
  EXPECT_EQ(serialize_request(second), canonical_line);
}

TEST(Protocol, AliasSpellingsFoldToCanonical) {
  // --walk/--generator and --process/--graph share one option table
  // (util/cli); the protocol accepts both spellings identically.
  const auto aliased = parse_request(
      "{\"op\":\"run\",\"generator\":\"cycle\",\"walk\":\"srw\","
      "\"params\":{\"n\":\"32\"}}");
  EXPECT_EQ(aliased.run.graph, "cycle");
  EXPECT_EQ(aliased.run.process, "srw");
  // Conflicting alias + canonical values are an error, not a silent pick.
  EXPECT_THROW(
      parse_request("{\"op\":\"run\",\"walk\":\"srw\",\"process\":\"rotor\"}"),
      std::invalid_argument);
}

TEST(Protocol, UnknownFieldRejectedWithSuggestion) {
  try {
    parse_request("{\"op\":\"run\",\"trails\":5}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string message = ex.what();
    EXPECT_NE(message.find("trails"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean"), std::string::npos) << message;
    EXPECT_NE(message.find("trials"), std::string::npos) << message;
  }
}

TEST(Protocol, MalformedJsonRejected) {
  EXPECT_THROW(parse_request("{\"op\":\"run\""), std::invalid_argument);
  EXPECT_THROW(parse_request("not json at all"), std::invalid_argument);
  EXPECT_THROW(parse_request("{\"op\":\"run\"} trailing"),
               std::invalid_argument);
  EXPECT_THROW(parse_request("[1,2,3]"), std::invalid_argument);
  EXPECT_THROW(parse_request("{\"op\":\"frobnicate\"}"),
               std::invalid_argument);
}

TEST(Protocol, StringEscapesRoundTrip) {
  const JsonValue v = parse_json(
      "{\"id\":\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"}");
  ASSERT_EQ(v.object.size(), 1u);
  EXPECT_EQ(v.object[0].second.string, "a\"b\\c\n\tA\xc3\xa9");
  // json_quote escapes control characters back to parseable form.
  const std::string quoted = json_quote("a\"b\\c\n\tA");
  const JsonValue back = parse_json(quoted);
  EXPECT_EQ(back.string, "a\"b\\c\n\tA");
}

// `{"op":"ping","id":"x","a":` + `depth` '[' + `depth` ']' + `}`.
std::string deeply_nested_line(std::size_t depth) {
  return "{\"op\":\"ping\",\"id\":\"x\",\"a\":" + std::string(depth, '[') +
         std::string(depth, ']') + "}";
}

TEST(Protocol, NestingDepthIsBounded) {
  // Uncapped recursion overflows the stack near depth 20000; the cap turns
  // any depth into an ordinary parse error.
  EXPECT_THROW(parse_json(deeply_nested_line(100000)), std::invalid_argument);
  try {
    parse_json(deeply_nested_line(kMaxJsonDepth));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("bad JSON at byte"),
              std::string::npos)
        << ex.what();
  }
  // The object plus kMaxJsonDepth - 1 arrays is exactly at the limit.
  const JsonValue at_limit = parse_json(deeply_nested_line(kMaxJsonDepth - 1));
  EXPECT_EQ(at_limit.object.size(), 3u);
}

TEST(Protocol, SerializersMatchByteGolden) {
  // Byte-exact response lines. Clients, the serve-smoke golden and
  // with_id-style splicing on the `{"id":` prefix all compare protocol
  // bytes, so any change to the JSON writer must leave these unchanged.
  RunRequest req;
  req.id = "g\"1";
  req.graph = "cycle";
  req.process = "coalescing-srw";
  req.params.set("n", "12");
  req.params.set("tokens", "3");
  req.seed = 5;
  req.trials = 3;
  req.analysis = true;
  RunResult run = execute_run(req);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(run.analysis.has_value());
  // Pin the timing and the eigen-solver's doubles so the golden depends
  // only on the writer; 0.1 and 1/3 exercise %.17g's 17 digits.
  run.wall_seconds = 0.1;
  run.analysis->lambda2 = 0.1;
  run.analysis->lambda_n = -1.0 / 3.0;
  run.analysis->gap = 2.5e-300;
  run.analysis->conductance_lower = 0.0;
  run.analysis->conductance_upper = 1e21;
  EXPECT_EQ(serialize_run_result(run),
            R"({"id":"g\"1","status":"ok","target":"coalescence",)"
            R"("graph":{"vertices":12,"edges":12,"connected":true,)"
            R"("cache_hit":false},"trials":3,"budget":1019200,)"
            R"("unfinished":0,"total_steps":171,"samples":[16,73,82],)"
            R"("stats":{"mean":57,"stddev":35.791060336346561,)"
            R"("std_error":20.663978319771825,"min":16,"max":82,)"
            R"("median":73},"meeting_samples":[6,20,5],)"
            R"("meeting_stats":{"mean":10.333333333333334,)"
            R"("stddev":8.3864970836060824,"std_error":4.8419463487779835,)"
            R"("min":5,"max":20,"median":6},)"
            R"("analysis":{"lambda2":0.10000000000000001,)"
            R"("lambda_n":-0.33333333333333331,"gap":2.5e-300,)"
            R"("conductance_lower":0,"conductance_upper":1e+21,"girth":12,)"
            R"("cache_hit":false},"wall_seconds":0.10000000000000001})");

  RunResult failed;
  failed.id = "e\\1";
  failed.error = "bad \"x\"\n\x01 end";
  EXPECT_EQ(serialize_run_result(failed),
            R"({"id":"e\\1","status":"error",)"
            R"("error":"bad \"x\"\n\u0001 end"})");

  GraphStoreStats stats;
  stats.hits = 1;
  stats.misses = 2;
  stats.evictions = 3;
  stats.coalesced = 4;
  stats.analysis_hits = 5;
  stats.analysis_misses = 6;
  stats.entries = 7;
  stats.bytes = 18446744073709551615ull;
  EXPECT_EQ(serialize_stats("s", stats, 8, 9),
            R"({"id":"s","status":"stats","cache":{"hits":1,"misses":2,)"
            R"("evictions":3,"coalesced":4,"analysis_hits":5,)"
            R"("analysis_misses":6,"entries":7,)"
            R"("bytes":18446744073709551615},"inflight":8,"completed":9})");
  EXPECT_EQ(serialize_queued("q\t", 42),
            R"({"id":"q\t","status":"queued","ticket":42})");
  EXPECT_EQ(serialize_error("", "oops\r\n"),
            R"({"id":"","status":"error","error":"oops\r\n"})");
  EXPECT_EQ(serialize_status("p", "pong"),
            R"({"id":"p","status":"pong"})");
  EXPECT_EQ(serialize_request(parse_request(
                "{\"op\":\"run\",\"id\":\"r\",\"graph\":\"regular\","
                "\"process\":\"eprocess\",\"seed\":18446744073709551615,"
                "\"target\":\"edges\",\"params\":{\"r\":\"4\",\"n\":\"64\","
                "\"rule\":\"u\\\"x\"}}")),
            R"({"op":"run","id":"r","graph":"regular",)"
            R"("process":"eprocess","trials":5,"threads":1,)"
            R"("seed":18446744073709551615,"max-steps":0,"target":"edges",)"
            R"("target-tokens":1,"bundle":1,"analysis":false,)"
            R"("params":{"n":"64","r":"4","rule":"u\"x"}})");
  EXPECT_EQ(serialize_request(parse_request("{\"op\":\"ping\",\"id\":\"z\"}")),
            R"({"op":"ping","id":"z"})");
}

// ---- GraphStore ------------------------------------------------------------

ParamMap cycle_params(std::uint32_t n) {
  ParamMap p;
  p.set("n", std::to_string(n));
  return p;
}

TEST(GraphStoreTest, HitMissCountersAndKeyCanonicalisation) {
  GraphStore store;
  bool hit = true;
  const auto a = store.acquire("cycle", cycle_params(64), 1, &hit);
  EXPECT_FALSE(hit);
  // Walk-level parameters are not part of the graph key: a request that
  // only differs in --rule must reuse the cached instance.
  ParamMap with_rule = cycle_params(64);
  with_rule.set("rule", "first");
  const auto b = store.acquire("cycle", with_rule, 1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());
  // Different seed or different size are different graphs.
  store.acquire("cycle", cycle_params(64), 2, &hit);
  EXPECT_FALSE(hit);
  store.acquire("cycle", cycle_params(128), 1, &hit);
  EXPECT_FALSE(hit);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(GraphStoreTest, CacheKeyIsCanonical) {
  ParamMap bag = cycle_params(64);
  bag.set("rule", "first");     // walk-level: dropped for "cycle"
  bag.set("trials", "9");       // run-level: dropped always
  EXPECT_EQ(GraphStore::cache_key("cycle", bag, 7),
            GraphStore::cache_key("cycle", cycle_params(64), 7));
  EXPECT_NE(GraphStore::cache_key("cycle", cycle_params(64), 7),
            GraphStore::cache_key("cycle", cycle_params(64), 8));
}

TEST(GraphStoreTest, EvictsLruUnderByteBudget) {
  // Size the budget from a real entry so the test tracks the bytes()
  // estimate instead of hard-coding struct sizes.
  std::uint64_t one_graph_bytes = 0;
  {
    GraphStore probe;
    probe.acquire("cycle", cycle_params(64), 1);
    one_graph_bytes = probe.stats().bytes;
  }
  GraphStore store(one_graph_bytes + one_graph_bytes / 2);
  const auto a = store.acquire("cycle", cycle_params(64), 1);
  store.acquire("cycle", cycle_params(64), 2);  // over budget: evicts seed 1
  auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // The evicted instance stays alive for holders of the shared_ptr.
  EXPECT_EQ(a->graph().num_vertices(), 64u);
  // Re-acquiring the evicted key is a rebuild, not a hit.
  bool hit = true;
  store.acquire("cycle", cycle_params(64), 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(store.stats().misses, 3u);
}

TEST(GraphStoreTest, BytesCountEveryCsrArray) {
  // The byte budget meters every array the CSR holds — offsets, slots, the
  // twin table and the edge list — so a new per-slot array cannot slip
  // past --cache-bytes.
  GraphStore store;
  ParamMap params;
  params.set("n", "128");
  params.set("r", "4");
  const auto cached = store.acquire("regular", params, 5);
  const Graph& g = cached->graph();
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  const std::uint64_t expected = (n + 1) * sizeof(std::uint32_t) +
                                 2 * m * sizeof(Slot) +
                                 2 * m * sizeof(std::uint32_t) +
                                 m * sizeof(Endpoints);
  EXPECT_EQ(g.bytes(), expected);
  EXPECT_EQ(cached->bytes(), expected + sizeof(CachedGraph));
  EXPECT_EQ(store.stats().bytes, cached->bytes());
}

TEST(GraphStoreTest, SingleFlightUnderConcurrency) {
  // N concurrent acquires of one cold key: exactly one construction, the
  // rest are (possibly coalesced) hits — and the counters are a pure
  // function of the request multiset, not the interleaving.
  GraphStore store;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CachedGraph>> got(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&store, &got, t] {
      got[t] = store.acquire("cycle", cycle_params(96), 5);
    });
  for (auto& t : threads) t.join();
  const auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t].get(), got[0].get());
}

TEST(GraphStoreTest, AnalysisComputedOnceAndCached) {
  // Odd cycle: non-bipartite, so the spectrum is non-degenerate and the
  // girth equals n — stable facts to pin the lazily cached block against.
  GraphStore store;
  const auto cached = store.acquire("cycle", cycle_params(31), 1);
  bool hit = true;
  const GraphAnalysis& first = cached->analysis(&hit);
  EXPECT_FALSE(hit);
  const GraphAnalysis& second = cached->analysis(&hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(&first, &second);
  EXPECT_GT(first.lambda2, 0.5);
  EXPECT_EQ(first.girth, 31u);
}

TEST(GraphStoreTest, BuildFailurePropagatesAndLeavesStoreClean) {
  GraphStore store;
  ParamMap bad;  // regular graphs need n*r even; n=5, r=3 is rejected
  bad.set("n", "5");
  bad.set("r", "3");
  EXPECT_THROW(store.acquire("regular", bad, 1), std::exception);
  EXPECT_EQ(store.stats().entries, 0u);
  // The store still serves other keys afterwards.
  EXPECT_NO_THROW(store.acquire("cycle", cycle_params(16), 1));
}

// ---- execute_run determinism under caching ---------------------------------

TEST(ExecuteRun, ColdWarmAndUncachedAreBitIdentical) {
  RunRequest req;
  req.graph = "cycle";
  req.process = "srw";
  req.params = cycle_params(64);
  req.seed = 7;
  req.trials = 4;

  const RunResult uncached = execute_run(req, nullptr);
  ASSERT_TRUE(uncached.ok) << uncached.error;

  GraphStore store;
  const RunResult cold = execute_run(req, &store);
  const RunResult warm = execute_run(req, &store);
  ASSERT_TRUE(cold.ok && warm.ok);
  EXPECT_FALSE(cold.graph_cache_hit);
  EXPECT_TRUE(warm.graph_cache_hit);
  EXPECT_EQ(uncached.samples, cold.samples);
  EXPECT_EQ(uncached.samples, warm.samples);
  EXPECT_EQ(uncached.budget, warm.budget);
  // The repeat same-key request triggered zero additional construction.
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST(ExecuteRun, ErrorsComeBackAsResults) {
  RunRequest req;
  req.graph = "cycle";
  req.process = "eproces";  // typo'd on purpose
  req.params = cycle_params(32);
  const RunResult result = execute_run(req);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("did you mean"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("eprocess"), std::string::npos) << result.error;
}

TEST(ExecuteRun, BadProcessParamsFailFromTrialWorkers) {
  // execute_run constructs no process before the trials, so a bad process
  // parameter surfaces from the trials' own construction — rethrown from
  // the worker, with the factory's message — on the serial and the
  // parallel trial paths alike.
  for (const std::uint32_t threads : {1u, 3u}) {
    RunRequest req;
    req.graph = "cycle";
    req.process = "multi-eprocess";
    req.params = cycle_params(32);
    req.params.set("walkers", "0");
    req.trials = 3;
    req.threads = threads;
    const RunResult walkers = execute_run(req);
    EXPECT_FALSE(walkers.ok);
    EXPECT_EQ(walkers.error, "--walkers must be >= 1") << "threads " << threads;

    req.process = "eprocess";
    req.params = cycle_params(32);
    req.params.set("rule", "unifrom");
    const RunResult rule = execute_run(req);
    EXPECT_FALSE(rule.ok);
    EXPECT_NE(rule.error.find("did you mean"), std::string::npos) << rule.error;
    EXPECT_NE(rule.error.find("uniform"), std::string::npos) << rule.error;
  }
}

TEST(ExecuteRun, TargetResolvedFromRegistryTokenFlag) {
  RunRequest req;
  req.graph = "cycle";
  req.params = cycle_params(32);
  req.trials = 2;
  req.process = "coalescing-srw";
  const RunResult token = execute_run(req);
  ASSERT_TRUE(token.ok) << token.error;
  EXPECT_EQ(token.target, RunTarget::kCoalescence);

  req.process = "srw";
  const RunResult walk = execute_run(req);
  ASSERT_TRUE(walk.ok) << walk.error;
  EXPECT_EQ(walk.target, RunTarget::kVertices);

  req.target = RunTarget::kCoalescence;
  const RunResult rejected = execute_run(req);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error,
            "--target coalescence needs an interacting-token process");
}

TEST(ExecuteRun, RegistryTokenFlagMatchesConstructedProcess) {
  // execute_run resolves the target from the flag alone, so it must agree
  // with what every registered factory actually builds.
  const Graph g = cycle_graph(9);
  for (const auto& entry : ProcessRegistry::instance().entries()) {
    Rng rng(1);
    const auto process = entry.factory(g, ParamMap{}, rng);
    EXPECT_EQ(entry.token, dynamic_cast<TokenProcess*>(process.get()) != nullptr)
        << entry.name;
  }
}

TEST(ExecuteRun, RegistrySuggestionsForGraphFamilies) {
  RunRequest req;
  req.graph = "regularr";  // nearest-name satellite: generator side
  req.process = "srw";
  const RunResult result = execute_run(req);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("did you mean"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("regular"), std::string::npos) << result.error;
}

// ---- Server ----------------------------------------------------------------

TEST(ServerTest, ConcurrentMixedKeyClientsMatchSerialReference) {
  // The acceptance scenario: >= 4 concurrent clients submitting a mix of
  // repeated and distinct keys produce result lines bit-identical to a
  // serial, cache-less replay of the same requests — and repeats of a key
  // cost zero additional constructions (hit counters prove it).
  const std::vector<std::string> requests = {
      run_line("c0", "cycle", "srw", 7, 64),
      run_line("c1", "cycle", "srw", 7, 64),       // repeat of c0's key
      run_line("c2", "cycle", "srw", 8, 64),       // same family, new seed
      run_line("c3", "regular", "eprocess", 7, 64),
      run_line("c4", "cycle", "srw", 7, 64),       // repeat again
      run_line("c5", "complete", "coalescing-srw", 3, 32),
  };
  // Serial reference: fresh single-threaded server, one request at a time.
  Collector serial;
  {
    Server reference(ServerConfig{0, 64, 1});
    for (const auto& request : requests) {
      reference.handle_line(request, serial.sink());
      reference.drain();
    }
  }
  // Concurrent replay: 4 client threads interleaving over a shared server.
  Collector concurrent;
  Server server(ServerConfig{0, 64, 0});
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c)
      clients.emplace_back([&server, &concurrent, &requests, c] {
        for (std::size_t i = c; i < requests.size(); i += 4)
          server.handle_line(requests[i], concurrent.sink());
      });
    for (auto& t : clients) t.join();
    server.drain();
  }
  EXPECT_EQ(result_lines(serial.snapshot()),
            result_lines(concurrent.snapshot()));
  // 4 distinct graph keys among 6 requests: repeats construct nothing.
  const auto stats = server.store().stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(ServerTest, MalformedRequestsDoNotKillTheDaemon) {
  Server server(ServerConfig{});
  Collector out;
  server.handle_line("this is not json", out.sink());
  server.handle_line("{\"op\":\"run\",\"trails\":5,\"id\":\"x\"}", out.sink());
  server.handle_line("{\"op\":\"nonsense\"}", out.sink());
  server.handle_line("", out.sink());  // blank: ignored entirely
  server.handle_line("{\"op\":\"ping\",\"id\":\"alive\"}", out.sink());
  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 4u);  // 3 errors + 1 pong, no blank response
  EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos);
  // The id still routes back even when the request failed to parse.
  EXPECT_NE(lines[1].find("\"id\":\"x\""), std::string::npos);
  EXPECT_EQ(lines[3], "{\"id\":\"alive\",\"status\":\"pong\"}");
}

TEST(ServerTest, DeeplyNestedRequestAnswersErrorAndDaemonLives) {
  Server server(ServerConfig{});
  Collector out;
  server.handle_line(deeply_nested_line(100000), out.sink());
  server.handle_line("{\"op\":\"ping\",\"id\":\"alive\"}", out.sink());
  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("nesting deeper than"), std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1], "{\"id\":\"alive\",\"status\":\"pong\"}");
}

TEST(ServerTest, AdmissionControlRejectsBeyondInflightCap) {
  Server server(ServerConfig{0, 1, 1});  // one slot only
  Collector out;
  // Submit a run, then a second before draining: with a single slot the
  // second must be rejected (the first may or may not have completed
  // already, so accept either a rejection or a second queued ack).
  server.handle_line(run_line("a0", "cycle", "srw", 1, 256, 2), out.sink());
  server.handle_line(run_line("a1", "cycle", "srw", 2, 256, 2), out.sink());
  server.drain();
  const auto lines = out.snapshot();
  std::size_t queued = 0, busy = 0;
  for (const auto& line : lines) {
    if (line.find("\"status\":\"queued\"") != std::string::npos) ++queued;
    if (line.find("server busy") != std::string::npos) ++busy;
  }
  EXPECT_GE(queued, 1u);
  EXPECT_EQ(queued + busy, 2u);
}

TEST(ServerTest, ShutdownDrainsInFlightWork) {
  Collector out;
  {
    Server server(ServerConfig{});
    for (int i = 0; i < 6; ++i)
      server.handle_line(run_line("s" + std::to_string(i), "cycle", "srw",
                                  10 + i, 128, 2),
                         out.sink());
    server.handle_line("{\"op\":\"shutdown\",\"id\":\"bye\"}", out.sink());
    EXPECT_TRUE(server.shutdown_requested());
    EXPECT_EQ(server.inflight(), 0u);
  }
  // Every accepted run completed before the "bye": 6 acks + 6 results + bye.
  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 13u);
  std::size_t results = 0;
  for (const auto& line : lines)
    if (line.find("\"status\":\"ok\"") != std::string::npos) ++results;
  EXPECT_EQ(results, 6u);
  EXPECT_EQ(lines.back(), "{\"id\":\"bye\",\"status\":\"bye\"}");
}

TEST(ServerTest, StreamTransportEndToEnd) {
  std::istringstream in(
      run_line("r1", "cycle", "srw", 7, 64) + "\n" +
      "{\"op\":\"drain\",\"id\":\"d\"}\n" +
      run_line("r2", "cycle", "srw", 7, 64) + "\n" +
      "{\"op\":\"drain\",\"id\":\"d2\"}\n" +
      "{\"op\":\"stats\",\"id\":\"s\"}\n" +
      "{\"op\":\"shutdown\",\"id\":\"z\"}\n");
  std::ostringstream out;
  Server server(ServerConfig{});
  server.serve_stream(in, out);
  const std::string text = out.str();
  // Warm run r2 equals cold run r1 sample-for-sample (the samples arrays
  // are byte-identical substrings of the two result lines).
  const auto sample_of = [&text](const std::string& id) {
    const std::size_t at = text.find("{\"id\":\"" + id + "\",\"status\":\"ok\"");
    EXPECT_NE(at, std::string::npos) << text;
    const std::size_t from = text.find("\"samples\":", at);
    return text.substr(from, text.find(']', from) - from);
  };
  EXPECT_EQ(sample_of("r1"), sample_of("r2"));
  EXPECT_NE(text.find("\"hits\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"misses\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("{\"id\":\"z\",\"status\":\"bye\"}"), std::string::npos);
}

TEST(ServerTest, TcpLoopbackRoundTrip) {
  Server server(ServerConfig{});
  std::uint16_t port = 0;
  try {
    port = server.listen_tcp(0);  // ephemeral
  } catch (const std::exception& ex) {
    GTEST_SKIP() << "cannot bind loopback: " << ex.what();
  }
  std::thread accept_thread([&server] { server.serve_tcp(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string payload = "{\"op\":\"ping\",\"id\":\"p\"}\n" +
                              run_line("t1", "cycle", "srw", 7, 64) + "\n" +
                              "{\"op\":\"drain\",\"id\":\"d\"}\n" +
                              "{\"op\":\"shutdown\",\"id\":\"z\"}\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  std::string received;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    received.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);
  accept_thread.join();

  EXPECT_NE(received.find("{\"id\":\"p\",\"status\":\"pong\"}"),
            std::string::npos)
      << received;
  EXPECT_NE(received.find("{\"id\":\"t1\",\"status\":\"ok\""),
            std::string::npos)
      << received;
  EXPECT_NE(received.find("{\"id\":\"z\",\"status\":\"bye\"}"),
            std::string::npos)
      << received;
}

}  // namespace
}  // namespace ewalk
