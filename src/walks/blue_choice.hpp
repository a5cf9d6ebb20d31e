// Rule dispatch over a BluePartition: the one blue-step chooser shared by
// EProcess, MultiEProcess, and CoalescingEWalk.
//
// The dispatch is index-based and lazy: the rule's choose_index() returns a
// position into the blue prefix and reads any candidate it cares about in
// O(1) through the EProcessView — no candidate span is ever materialised
// (legacy span-only rules are adapted by UnvisitedEdgeRule's default
// choose_index(), which rebuilds the span at the old cost). Rules that
// declare themselves uniform skip even the virtual dispatch: the chooser
// samples a position directly with the identical rng draw
// (uniform(blue_count)) a uniform choose_index() would make, so both paths
// produce the same walk bit-for-bit.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/blue_partition.hpp"
#include "walks/cover_state.hpp"
#include "walks/eprocess.hpp"

namespace ewalk {

/// Chooses a position in v's blue prefix (blue_count(v) >= 1 required); the
/// caller takes it with BluePartition::take. `uniform_rule` is
/// rule.uniform_over_candidates(), hoisted by the caller at construction so
/// the hot path pays no per-step virtual query.
inline std::uint32_t choose_blue_position(const BluePartition& blue,
                                          const Graph& g, Vertex v,
                                          UnvisitedEdgeRule& rule,
                                          bool uniform_rule,
                                          const CoverState& cover,
                                          std::uint64_t steps, Rng& rng) {
  const std::uint32_t b = blue.blue_count(v);
  if (uniform_rule) return static_cast<std::uint32_t>(rng.uniform(b));
  const EProcessView view(g, cover, blue, steps);
  const std::uint32_t idx = rule.choose_index(view, v, b, rng);
  if (idx >= b)
    throw std::logic_error("UnvisitedEdgeRule returned out-of-range index");
  return idx;
}

}  // namespace ewalk
