#include "walks/multi_eprocess.hpp"

#include <stdexcept>

#include "walks/blue_choice.hpp"

namespace ewalk {

MultiEProcess::MultiEProcess(const Graph& g, std::vector<Vertex> starts,
                             UnvisitedEdgeRule& rule)
    : g_(&g), rule_(&rule), uniform_rule_(rule.uniform_over_candidates()),
      positions_(std::move(starts)),
      cover_(g.num_vertices(), g.num_edges()), blue_(g) {
  if (positions_.empty())
    throw std::invalid_argument("MultiEProcess: need at least one walker");
  for (const Vertex v : positions_) {
    if (v >= g.num_vertices())
      throw std::invalid_argument("MultiEProcess: start vertex out of range");
  }
  for (const Vertex v : positions_) cover_.visit_vertex(v, 0);
}

StepColor MultiEProcess::step(Rng& rng) {
  const std::uint32_t w = next_walker_;
  next_walker_ = (next_walker_ + 1) % num_walkers();
  const Vertex v = positions_[w];
  ++steps_;
  StepColor color;
  Vertex to;
  if (blue_.blue_count(v) > 0) {
    const Slot chosen =
        blue_.take(*g_, v,
                   choose_blue_position(blue_, *g_, v, *rule_, uniform_rule_,
                                        cover_, steps_, rng));
    cover_.visit_edge(chosen.edge, steps_);
    to = chosen.neighbor;
    color = StepColor::kBlue;
    ++blue_steps_;
  } else {
    const std::uint32_t d = g_->degree(v);
    if (d == 0) throw std::logic_error("MultiEProcess: stuck at isolated vertex");
    const Slot slot = g_->slot(v, static_cast<std::uint32_t>(rng.uniform(d)));
    to = slot.neighbor;
    color = StepColor::kRed;
    ++red_steps_;
  }
  positions_[w] = to;
  cover_.visit_vertex(to, steps_);
  return color;
}

}  // namespace ewalk
