// The ewalkd wire protocol: line-delimited JSON requests and responses.
//
// One request per line, one JSON object per request; responses are likewise
// compact single-line JSON objects tagged with the request's `id`. This file
// holds the schema only: the JSON itself (parse_json, JsonWriter, json_quote,
// format_json_double) comes from the repo's one JSON module, util/json.
//
// Request shape (all fields optional except a run's registry names resolve):
//
//   {"op":"run","id":"r1","graph":"regular","process":"eprocess",
//    "trials":5,"seed":42,"params":{"n":"256","r":"3"}}
//
// `op` defaults to "run". Scalar run fields mirror the `ewalk` CLI flags
// one-for-one (including the --walk/--generator aliases, folded by the same
// canonical table in util/cli); extra generator/process parameters ride in
// the nested "params" object. Unknown top-level fields are rejected with
// nearest-match suggestions — a typo'd "trails" must not silently run 5
// trials. Numbers keep their literal spelling end-to-end (a 64-bit seed
// never transits a double); nesting deeper than kMaxJsonDepth is rejected.
//
// Determinism: serializers emit fields in a fixed order with %.17g doubles,
// so byte-identical results serialize to byte-identical lines — golden-file
// diffs in CI and serve_test's byte golden depend on this.
#pragma once

#include <cstdint>
#include <string>

#include "serve/graph_store.hpp"
#include "serve/request.hpp"
#include "util/json.hpp"

namespace ewalk {

/// One decoded protocol request.
struct ServerRequest {
  /// "run" (default), "ping", "stats", "drain", or "shutdown".
  std::string op = "run";
  /// Echo tag for matching responses to requests ("" if absent).
  std::string id;
  /// The run configuration; meaningful only when op == "run".
  RunRequest run;
};

/// Parses one request line: JSON object -> ServerRequest. Scalar run fields
/// and the nested "params" object are folded into one ParamMap (aliases
/// canonicalised via util/cli's shared table), then validated by
/// run_request_from_params. Unknown ops and unknown top-level fields throw
/// std::invalid_argument with nearest-match suggestions.
ServerRequest parse_request(const std::string& line);

/// Serializes a request back to a canonical protocol line (fields in fixed
/// order, params sorted). parse_request(serialize_request(r)) reproduces
/// `r` — the round-trip property the protocol tests pin.
std::string serialize_request(const ServerRequest& request);

/// The immediate acknowledgement for an accepted run:
/// {"id":..,"status":"queued","ticket":N}.
std::string serialize_queued(const std::string& id, std::uint64_t ticket);

/// A completed run as one response line: status "ok" with the samples,
/// summary stats, graph block (size, connectivity, cache hit), and the
/// optional coalescence/analysis blocks — or status "error" with the
/// message when the run failed.
std::string serialize_run_result(const RunResult& result);

/// A request-level failure (parse error, admission rejection):
/// {"id":..,"status":"error","error":msg}.
std::string serialize_error(const std::string& id, const std::string& message);

/// A stats snapshot: cache counters plus the server's queue gauges.
std::string serialize_stats(const std::string& id, const GraphStoreStats& stats,
                            std::uint64_t inflight, std::uint64_t completed);

/// A bare {"id":..,"status":status} line (pong, drained, bye).
std::string serialize_status(const std::string& id, const std::string& status);

}  // namespace ewalk
