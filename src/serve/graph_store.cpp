#include "serve/graph_store.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "analysis/girth.hpp"
#include "engine/registry.hpp"
#include "graph/algorithms.hpp"
#include "spectral/conductance.hpp"
#include "spectral/spectrum.hpp"
#include "util/rng.hpp"

namespace ewalk {

namespace {

// Run-level keys that can never be graph parameters: protocol fields, trial
// scheduling, process dispatch, and daemon flags. Used for open-ended
// families whose params_help does not enumerate a closed key set.
bool is_run_level_key(const std::string& key) {
  static const char* const kRunKeys[] = {
      "id",       "op",       "graph",     "generator", "process",
      "walk",     "trials",   "threads",   "seed",      "max-steps",
      "target",   "target-tokens",         "analysis",  "csv",
      "profile",  "sweep",    "max-trials", "ci-width", "bundle",
      "pin",      "help",     "port",      "stdin",     "cache-bytes",
      "inflight"};
  for (const char* k : kRunKeys)
    if (key == k) return true;
  return false;
}

// Extracts the "--key" tokens of a registry params_help string, e.g.
// "[--rule uniform|first] [--start V]" -> {"rule", "start"}.
std::vector<std::string> declared_keys(const std::string& params_help) {
  std::vector<std::string> keys;
  std::size_t pos = 0;
  while ((pos = params_help.find("--", pos)) != std::string::npos) {
    pos += 2;
    std::size_t end = pos;
    while (end < params_help.size() &&
           (std::isalnum(static_cast<unsigned char>(params_help[end])) ||
            params_help[end] == '-'))
      ++end;
    if (end > pos) keys.push_back(params_help.substr(pos, end - pos));
    pos = end;
  }
  return keys;
}

}  // namespace

std::shared_ptr<const CachedGraph> CachedGraph::build(const std::string& generator,
                                                      const ParamMap& params,
                                                      std::uint64_t seed) {
  const GeneratorRegistry& generators = GeneratorRegistry::instance();
  Rng graph_rng(seed);
  Graph g = generators.create(generator, params, graph_rng);
  const bool connected =
      generators.connected_by_construction(generator) || is_connected(g);
  return std::make_shared<const CachedGraph>(std::move(g), connected);
}

std::uint64_t CachedGraph::bytes() const noexcept {
  return graph_.bytes() + sizeof(CachedGraph);
}

const GraphAnalysis& CachedGraph::analysis(bool* hit) const {
  std::lock_guard<std::mutex> lock(analysis_mutex_);
  if (analysis_) {
    if (hit) *hit = true;
    return *analysis_;
  }
  if (hit) *hit = false;
  GraphAnalysis a;
  const WalkSpectrum spectrum = estimate_spectrum(graph_);
  a.lambda2 = spectrum.lambda2;
  a.lambda_n = spectrum.lambda_n;
  a.gap = spectrum.gap();
  const ConductanceBounds phi = conductance_bounds_from_lambda2(spectrum.lambda2);
  a.conductance_lower = phi.lower;
  a.conductance_upper = phi.upper;
  a.girth = girth(graph_);
  analysis_ = a;
  return *analysis_;
}

ParamMap GraphStore::canonical_graph_params(const std::string& generator,
                                            const ParamMap& params) {
  std::string help;
  bool known = false;
  for (const auto& e : GeneratorRegistry::instance().entries())
    if (e.name == generator) {
      known = true;
      help = e.params_help;
      break;
    }
  ParamMap canonical;
  if (known && help.find('+') == std::string::npos) {
    for (const std::string& key : declared_keys(help))
      if (params.has(key)) canonical.set(key, params.get(key, ""));
  } else {
    // Open-ended family (pcf forwards to its base) or unknown generator:
    // keep everything that cannot be a run-level option.
    for (const auto& [key, value] : params.values())
      if (!is_run_level_key(key)) canonical.set(key, value);
  }
  return canonical;
}

std::string GraphStore::cache_key(const std::string& generator,
                                  const ParamMap& params, std::uint64_t seed) {
  std::ostringstream key;
  key << generator << "|seed=" << seed;
  // ParamMap iterates its std::map in key order — already canonical.
  const ParamMap canonical = canonical_graph_params(generator, params);
  for (const auto& [k, v] : canonical.values()) key << '|' << k << '=' << v;
  return key.str();
}

void GraphStore::touch(Entry& entry, const std::string& key) {
  lru_.erase(entry.lru_pos);
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
}

void GraphStore::evict_to_budget(const std::string& keep_key) {
  if (max_bytes_ == 0) return;
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    if (victim == keep_key) break;  // never evict the entry just inserted
    auto it = entries_.find(victim);
    bytes_ -= it->second.graph->bytes();
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const CachedGraph> GraphStore::acquire(
    const std::string& generator, const ParamMap& params, std::uint64_t seed,
    bool* hit) {
  const std::string key = cache_key(generator, params, seed);
  if (hit) *hit = true;  // every return path below except the build is a hit

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto it = entries_.find(key); it != entries_.end()) {
      ++stats_.hits;
      touch(it->second, key);
      return it->second.graph;
    }
    auto build_it = building_.find(key);
    if (build_it == building_.end()) break;
    // Another request is constructing this key right now: wait for it and
    // count as a hit — this request triggers zero additional construction.
    std::shared_ptr<Build> build = build_it->second;
    ++stats_.coalesced;
    build_cv_.wait(lock, [&build] { return build->done; });
    if (build->failed) throw std::runtime_error(build->error);
    // The entry is now resident (or was already evicted under an extreme
    // budget — loop and re-check; worst case this thread rebuilds it).
  }

  auto build = std::make_shared<Build>();
  building_.emplace(key, build);
  ++stats_.misses;
  if (hit) *hit = false;
  lock.unlock();

  std::shared_ptr<const CachedGraph> cached;
  try {
    cached = CachedGraph::build(generator, params, seed);
  } catch (const std::exception& ex) {
    lock.lock();
    build->failed = true;
    build->error = ex.what();
    build->done = true;
    building_.erase(key);
    build_cv_.notify_all();
    throw;
  }

  lock.lock();
  lru_.push_front(key);
  entries_.emplace(key, Entry{cached, lru_.begin()});
  bytes_ += cached->bytes();
  evict_to_budget(key);
  build->done = true;
  building_.erase(key);
  build_cv_.notify_all();
  return cached;
}

void GraphStore::note_analysis(bool hit) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (hit)
    ++stats_.analysis_hits;
  else
    ++stats_.analysis_misses;
}

GraphStoreStats GraphStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  GraphStoreStats out = stats_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace ewalk
