// String-keyed registries: construct walk processes and graph families by
// name from parsed options.
//
// The CLI, the experiment harness, and future sweep drivers all dispatch
// through these instead of hand-written if-chains; --help output is
// generated from the registered entries, so adding a process or generator
// in one place makes it available (and documented) everywhere.
//
// Built-in entries are registered on first access; extensions can add their
// own via add(). Lookup throws std::invalid_argument with the list of known
// names, so a CLI typo produces a useful message.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/params.hpp"
#include "engine/process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/eprocess.hpp"

namespace ewalk {

/// Builds a choice rule by name: uniform | first | last | roundrobin |
/// adversary | greedy | priority. Throws std::invalid_argument on unknown
/// names. (The priority rule draws its permutation from `rng`.)
std::unique_ptr<UnvisitedEdgeRule> make_rule(const std::string& name,
                                             const Graph& g, Rng& rng);

/// Names accepted by make_rule, for help output.
const std::vector<std::string>& rule_names();

/// Levenshtein edit distance between `a` and `b` — the metric behind the
/// "did you mean" suggestions in registry lookup errors.
std::size_t edit_distance(const std::string& a, const std::string& b);

/// The candidates closest to `name` by edit distance, nearest first, capped
/// at `max_results` and at a distance budget scaled to the query length (so
/// a wild typo suggests nothing rather than everything). Used by the
/// registries and make_rule to make typo'd CLI flags and server requests
/// self-diagnosing.
std::vector<std::string> nearest_names(const std::string& name,
                                       const std::vector<std::string>& candidates,
                                       std::size_t max_results = 3);

namespace detail {

/// Shared registry machinery: named entries with help strings, lookup that
/// throws listing the known names (plus nearest-match suggestions),
/// registration-order enumeration. The two concrete registries differ only
/// in factory signature and error label.
template <typename FactoryT>
class NamedRegistry {
 public:
  /// Facts about a factory's output, declared at registration so a caller
  /// can act on them from the name without constructing anything. Each is
  /// false unless the registration sets it (designated initializers:
  /// `{.token = true}`).
  struct Traits {
    /// Processes only: the factory returns an interacting-token process
    /// (a TokenProcess), so a run target can be resolved from the name.
    bool token = false;
    /// Generators only: the factory proves every graph it returns connected
    /// before returning it (e.g. by union-find during generation), so
    /// callers skip their own connectivity BFS.
    bool connected = false;
  };

  struct Entry {
    std::string name;
    std::string params_help;  ///< e.g. "--rule R --start V"
    std::string summary;      ///< one-line description
    FactoryT factory;
    Traits traits;
  };

  void add(std::string name, std::string params_help, std::string summary,
           FactoryT factory, Traits traits = {}) {
    for (const Entry& e : entries_)
      if (e.name == name)
        throw std::invalid_argument(std::string(kind_) +
                                    " already registered: " + name);
    entries_.push_back(Entry{std::move(name), std::move(params_help),
                             std::move(summary), std::move(factory), traits});
  }

  bool contains(const std::string& name) const {
    for (const Entry& e : entries_)
      if (e.name == name) return true;
    return false;
  }

  /// The entry registered under `name`; throws std::invalid_argument with
  /// nearest-match suggestions when absent. Lets callers validate a name
  /// (and get the self-diagnosing error) without constructing anything.
  const Entry& at(const std::string& name) const { return find(name); }

  /// Registered names in registration order.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }

  const std::vector<Entry>& entries() const { return entries_; }

 protected:
  explicit NamedRegistry(const char* kind) : kind_(kind) {}

  const Entry& find(const std::string& name) const {
    for (const Entry& e : entries_)
      if (e.name == name) return e;
    std::ostringstream msg;
    msg << "unknown " << kind_ << ": " << name;
    const std::vector<std::string> near = nearest_names(name, names());
    if (!near.empty()) {
      msg << " (did you mean:";
      for (const std::string& n : near) msg << ' ' << n;
      msg << '?' << ')';
    }
    msg << " (known:";
    for (const Entry& e : entries_) msg << ' ' << e.name;
    msg << ')';
    throw std::invalid_argument(msg.str());
  }

 private:
  const char* kind_;
  std::vector<Entry> entries_;
};

}  // namespace detail

/// Constructs a process on `g`. `params` carries process-specific options
/// (start, rule, d, walkers, ...); `rng` is available for construction-time
/// randomness (e.g. the priority rule's permutation) and is the same stream
/// the walk will subsequently be driven with. (Distinct from the experiment
/// harness's ProcessFactory, which has already bound its parameters.)
using RegistryProcessFactory = std::function<std::unique_ptr<WalkProcess>(
    const Graph& g, const ParamMap& params, Rng& rng)>;

/// Walk processes by name ("eprocess", "srw", ...): the CLI's --process /
/// --walk dispatch and the construction path every bench and experiment
/// uses.
class ProcessRegistry : public detail::NamedRegistry<RegistryProcessFactory> {
 public:
  /// Factory signature stored per entry.
  using Factory = RegistryProcessFactory;

  /// The global registry, populated with the built-in processes.
  static ProcessRegistry& instance();

  /// Constructs process `name` on `g` with `params`; throws
  /// std::invalid_argument (listing known names) for unknown `name`.
  std::unique_ptr<WalkProcess> create(const std::string& name, const Graph& g,
                                      const ParamMap& params, Rng& rng) const {
    return find(name).factory(g, params, rng);
  }

  /// Whether `name` was registered as an interacting-token process (its
  /// create() returns a TokenProcess); throws like create() for unknown
  /// names.
  bool is_token(const std::string& name) const { return find(name).traits.token; }

 private:
  ProcessRegistry() : NamedRegistry("--process") {}
};

/// Builds a graph family from parsed options; `rng` drives randomised
/// constructions (random regular, G(n,p), geometric, ...).
using GraphGeneratorFactory =
    std::function<Graph(const ParamMap& params, Rng& rng)>;

/// Graph families by name ("regular", "cycle", "lps", ...): the CLI's
/// --graph dispatch.
class GeneratorRegistry : public detail::NamedRegistry<GraphGeneratorFactory> {
 public:
  /// Factory signature stored per entry.
  using Factory = GraphGeneratorFactory;

  /// The global registry, populated with the built-in graph families.
  static GeneratorRegistry& instance();

  /// Constructs graph family `name` with `params`; throws
  /// std::invalid_argument (listing known names) for unknown `name`.
  Graph create(const std::string& name, const ParamMap& params, Rng& rng) const {
    return find(name).factory(params, rng);
  }

  /// Whether family `name` was registered as connected by construction:
  /// every graph its factory returns is connected, so the caller's
  /// is_connected BFS is redundant. Throws like create() for unknown names.
  bool connected_by_construction(const std::string& name) const {
    return find(name).traits.connected;
  }

 private:
  GeneratorRegistry() : NamedRegistry("--graph") {}
};

}  // namespace ewalk
