#include "walks/blue_partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace ewalk {

namespace {

[[noreturn]] void violated(const std::string& what, Vertex v, std::uint32_t i) {
  throw std::logic_error("BluePartition invariant violated at vertex " +
                         std::to_string(v) + ", record " + std::to_string(i) +
                         ": " + what);
}

}  // namespace

void BluePartition::check_invariants(const Graph& g) const {
  if (records_.size() != 2 * static_cast<std::size_t>(g.num_edges()) ||
      blue_count_.size() != g.num_vertices())
    throw std::logic_error("BluePartition invariant violated: sized for another graph");
  std::vector<std::pair<Vertex, EdgeId>> region, row;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t off = g.slot_offset(v);
    const std::uint32_t d = g.degree(v);
    if (blue_count_[v] > d) violated("blue_count exceeds the degree", v, off);
    region.clear();
    row.clear();
    for (std::uint32_t k = 0; k < d; ++k) {
      const std::uint32_t i = off + k;
      const Record& r = records_[i];
      region.emplace_back(r.neighbor, r.edge);
      row.emplace_back(g.slot(v, k).neighbor, g.slot(v, k).edge);
      if (r.neighbor >= g.num_vertices()) violated("neighbor out of range", v, i);
      const std::uint32_t lo = g.slot_offset(r.neighbor);
      if (r.mate < lo || r.mate >= lo + g.degree(r.neighbor))
        violated("mate outside the neighbor's region", v, i);
      if (r.mate == i) violated("record is its own mate", v, i);
      const Record& m = records_[r.mate];
      if (m.mate != i) violated("mate's mate is not the record", v, i);
      if (m.edge != r.edge) violated("mate carries another edge", v, i);
      const bool blue = k < blue_count_[v];
      const bool mate_blue = r.mate - lo < blue_count_[r.neighbor];
      if (blue != mate_blue) violated("edge blue at one endpoint only", v, i);
    }
    std::sort(region.begin(), region.end());
    std::sort(row.begin(), row.end());
    if (region != row) violated("region is not a permutation of the CSR row", v, off);
  }
}

}  // namespace ewalk
