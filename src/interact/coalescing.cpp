#include "interact/coalescing.hpp"

#include <stdexcept>

#include "walks/blue_choice.hpp"

namespace ewalk {

// ---- CoalescingRW ----------------------------------------------------------

CoalescingRW::CoalescingRW(const Graph& g, std::vector<Vertex> starts)
    : g_(&g), tokens_(g, starts), cover_(g.num_vertices(), g.num_edges()) {
  for (const Vertex v : starts) cover_.visit_vertex(v, 0);
}

void CoalescingRW::step(Rng& rng) {
  const TokenSystem::TokenId t = next_token_;
  ++steps_;
  const Vertex v = tokens_.position(t);
  const std::uint32_t d = g_->degree(v);
  if (d == 0) throw std::logic_error("CoalescingRW: stuck at isolated vertex");
  const Slot slot = g_->slot(v, static_cast<std::uint32_t>(rng.uniform(d)));
  cover_.visit_edge(slot.edge, steps_);
  const TokenSystem::TokenId other = tokens_.move(t, slot.neighbor, steps_);
  cover_.visit_vertex(slot.neighbor, steps_);
  if (other != TokenSystem::kNoToken) tokens_.kill(t, steps_);  // merge: mover dies
  next_token_ = tokens_.next_alive_after(t);
}

// ---- CoalescingEWalk -------------------------------------------------------

CoalescingEWalk::CoalescingEWalk(const Graph& g, std::vector<Vertex> starts,
                                 std::unique_ptr<UnvisitedEdgeRule> rule)
    : g_(&g), rule_(std::move(rule)),
      uniform_rule_(rule_ != nullptr && rule_->uniform_over_candidates()),
      tokens_(g, starts), cover_(g.num_vertices(), g.num_edges()), blue_(g) {
  if (!rule_) throw std::invalid_argument("CoalescingEWalk: rule is required");
  for (const Vertex v : starts) cover_.visit_vertex(v, 0);
}

void CoalescingEWalk::step(Rng& rng) {
  const TokenSystem::TokenId t = next_token_;
  ++steps_;
  const Vertex v = tokens_.position(t);
  Vertex to;
  if (blue_.blue_count(v) > 0) {
    const Slot chosen =
        blue_.take(*g_, v,
                   choose_blue_position(blue_, *g_, v, *rule_, uniform_rule_,
                                        cover_, steps_, rng));
    cover_.visit_edge(chosen.edge, steps_);
    to = chosen.neighbor;
    ++blue_steps_;
  } else {
    const std::uint32_t d = g_->degree(v);
    if (d == 0)
      throw std::logic_error("CoalescingEWalk: stuck at isolated vertex");
    // All incident edges are red here, so no visit_edge bookkeeping needed.
    const Slot slot = g_->slot(v, static_cast<std::uint32_t>(rng.uniform(d)));
    to = slot.neighbor;
    ++red_steps_;
  }
  const TokenSystem::TokenId other = tokens_.move(t, to, steps_);
  cover_.visit_vertex(to, steps_);
  if (other != TokenSystem::kNoToken) tokens_.kill(t, steps_);  // merge: mover dies
  next_token_ = tokens_.next_alive_after(t);
}

}  // namespace ewalk
