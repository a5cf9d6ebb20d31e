#include "serve/protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/registry.hpp"
#include "util/cli.hpp"

namespace ewalk {

namespace {

// Every top-level field a request may carry: the protocol controls (op, id,
// params) plus the scalar run fields, which mirror the CLI flags
// one-for-one including the alias spellings util/cli canonicalises.
const std::vector<std::string>& known_request_fields() {
  static const std::vector<std::string> kFields = {
      "op",     "id",      "params",  "graph",   "generator",
      "process", "walk",   "trials",  "threads", "seed",
      "max-steps", "target", "target-tokens", "bundle", "analysis"};
  return kFields;
}

bool is_request_field(const std::string& key) {
  const auto& fields = known_request_fields();
  return std::find(fields.begin(), fields.end(), key) != fields.end();
}

const std::vector<std::string>& known_ops() {
  static const std::vector<std::string> kOps = {"run", "ping", "stats",
                                                "drain", "shutdown"};
  return kOps;
}

[[noreturn]] void fail_unknown(const std::string& kind, const std::string& name,
                               const std::vector<std::string>& known) {
  std::string message = "unknown " + kind + ": " + name;
  const auto near = nearest_names(name, known);
  if (!near.empty()) {
    message += " (did you mean:";
    for (const auto& n : near) message += ' ' + n;
    message += "?)";
  }
  throw std::invalid_argument(message);
}

}  // namespace

ServerRequest parse_request(const std::string& line) {
  const JsonValue root = parse_json(line);
  if (root.type != JsonValue::Type::kObject)
    throw std::invalid_argument("request must be a JSON object");

  ServerRequest request;
  ParamMap fields;
  for (const auto& [key, value] : root.object) {
    if (key == "op") {
      request.op = value.as_param_string();
      continue;
    }
    if (key == "params") {
      if (value.type != JsonValue::Type::kObject)
        throw std::invalid_argument("\"params\" must be a JSON object");
      for (const auto& [pkey, pvalue] : value.object)
        fields.set(pkey, pvalue.as_param_string());
      continue;
    }
    if (!is_request_field(key))
      fail_unknown("request field", key, known_request_fields());
    fields.set(key, value.as_param_string());
  }

  const auto& ops = known_ops();
  if (std::find(ops.begin(), ops.end(), request.op) == ops.end())
    fail_unknown("op", request.op, ops);

  request.id = fields.get("id", "");
  if (request.op == "run") {
    canonicalize_run_params(fields);
    request.run = run_request_from_params(fields);
  }
  return request;
}

std::string serialize_request(const ServerRequest& request) {
  JsonWriter w;
  w.open('{').field("op", request.op);
  if (!request.id.empty()) w.field("id", request.id);
  if (request.op == "run") {
    const RunRequest& run = request.run;
    w.field("graph", run.graph).field("process", run.process)
        .field("trials", run.trials).field("threads", run.threads)
        .field("seed", run.seed).field("max-steps", run.max_steps)
        .field("target", run_target_name(run.target))
        .field("target-tokens", run.target_tokens)
        .field("bundle", run.bundle_width).field("analysis", run.analysis);
    // The rest of the bag is generator/process parameters (parse_request
    // folded the scalar fields above into it too).
    bool params_open = false;
    for (const auto& [key, value] : run.params.values()) {
      if (is_request_field(key)) continue;
      if (!params_open) w.key("params").open('{');
      params_open = true;
      w.field(key, value);
    }
    if (params_open) w.close('}');
  }
  return w.close('}').take();
}

std::string serialize_queued(const std::string& id, std::uint64_t ticket) {
  return JsonWriter().open('{').field("id", id).field("status", "queued")
      .field("ticket", ticket).close('}').take();
}

std::string serialize_run_result(const RunResult& result) {
  if (!result.ok) return serialize_error(result.id, result.error);
  JsonWriter w;
  const auto write_stats = [&w](const char* key, const SummaryStats& stats) {
    w.key(key).open('{').field("mean", stats.mean)
        .field("stddev", stats.stddev).field("std_error", stats.std_error)
        .field("min", stats.min).field("max", stats.max)
        .field("median", stats.median).close('}');
  };
  w.open('{').field("id", result.id).field("status", "ok")
      .field("target", run_target_name(result.target));
  if (result.graph) {
    const Graph& g = result.graph->graph();
    w.key("graph").open('{').field("vertices", g.num_vertices())
        .field("edges", g.num_edges())
        .field("connected", result.graph->connected())
        .field("cache_hit", result.graph_cache_hit).close('}');
  }
  w.field("trials", result.samples.size()).field("budget", result.budget)
      .field("unfinished", result.unfinished)
      .field("total_steps", result.total_steps)
      .field("samples", result.samples);
  write_stats("stats", result.stats);
  if (result.target == RunTarget::kCoalescence) {
    w.field("meeting_samples", result.meeting_samples);
    write_stats("meeting_stats", result.meeting_stats);
  }
  if (result.analysis) {
    const GraphAnalysis& a = *result.analysis;
    w.key("analysis").open('{').field("lambda2", a.lambda2)
        .field("lambda_n", a.lambda_n).field("gap", a.gap)
        .field("conductance_lower", a.conductance_lower)
        .field("conductance_upper", a.conductance_upper)
        .field("girth", a.girth)
        .field("cache_hit", result.analysis_cache_hit).close('}');
  }
  return w.field("wall_seconds", result.wall_seconds).close('}').take();
}

std::string serialize_error(const std::string& id, const std::string& message) {
  return JsonWriter().open('{').field("id", id).field("status", "error")
      .field("error", message).close('}').take();
}

std::string serialize_stats(const std::string& id, const GraphStoreStats& stats,
                            std::uint64_t inflight, std::uint64_t completed) {
  return JsonWriter().open('{').field("id", id).field("status", "stats")
      .key("cache").open('{')
      .field("hits", stats.hits).field("misses", stats.misses)
      .field("evictions", stats.evictions).field("coalesced", stats.coalesced)
      .field("analysis_hits", stats.analysis_hits)
      .field("analysis_misses", stats.analysis_misses)
      .field("entries", stats.entries).field("bytes", stats.bytes)
      .close('}').field("inflight", inflight).field("completed", completed)
      .close('}').take();
}

std::string serialize_status(const std::string& id, const std::string& status) {
  return JsonWriter().open('{').field("id", id).field("status", status)
      .close('}').take();
}

}  // namespace ewalk
