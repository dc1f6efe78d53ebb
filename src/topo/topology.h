// Machine topology: cores, SMT siblings, NUMA nodes, and the interconnect.
//
// Mirrors what the kernel learns from ACPI/SRAT/SLIT tables. The topology is
// immutable; which cores are *online* is dynamic state owned by the scheduler
// (see src/core/scheduler.h), because hotplug is a scheduler-visible event.
#ifndef SRC_TOPO_TOPOLOGY_H_
#define SRC_TOPO_TOPOLOGY_H_

#include <string>
#include <vector>

#include "src/simkit/cpuset.h"

namespace wcores {

using NodeId = int;
constexpr NodeId kInvalidNode = -1;

class Topology {
 public:
  // A machine with `n_nodes` NUMA nodes of `cores_per_node` cores each.
  // Cores are numbered node-major: node n owns cores [n*cpn, (n+1)*cpn).
  // Consecutive pairs of cores are SMT siblings when `smt_width` == 2.
  // `node_hops` is the symmetric inter-node hop matrix; when empty, every
  // pair of distinct nodes is one hop apart (a "flat" interconnect). An
  // invalid shape — no nodes or cores, an smt width that does not divide
  // the node, more than kMaxCpus cores, a malformed hop matrix (not square,
  // asymmetric, a nonzero diagonal or a distinct pair less than one hop
  // apart) — aborts (WC_CHECK), in every build type.
  Topology(int n_nodes, int cores_per_node, int smt_width,
           std::vector<std::vector<int>> node_hops = {});

  // The paper's experimental machine (Table 5 / Figure 4): 64 cores, eight
  // nodes of eight cores, SMT pairs sharing an FPU, and the asymmetric
  // HyperTransport mesh where e.g. Nodes 1 and 2 are two hops apart.
  static Topology Bulldozer8x8();

  // A flat machine: every node one hop from every other.
  static Topology Flat(int n_nodes, int cores_per_node, int smt_width = 2);

  // Figure 1's illustrative machine: 32 cores, four nodes of eight, SMT
  // pairs, arranged in a ring so each node has two one-hop neighbours and
  // one two-hop neighbour — yielding the figure's four domain levels (pair,
  // node, node+1-hop [three nodes], whole machine).
  static Topology Example32();

  int n_cores() const { return n_cores_; }
  int n_nodes() const { return n_nodes_; }
  int cores_per_node() const { return cores_per_node_; }
  int smt_width() const { return smt_width_; }

  NodeId NodeOf(CpuId cpu) const { return cpu / cores_per_node_; }
  const CpuSet& CpusOfNode(NodeId node) const { return CpusWithin(node, 0); }

  // SMT siblings of `cpu`, including `cpu` itself.
  const CpuSet& SmtSiblings(CpuId cpu) const { return smt_siblings_[cpu]; }

  // Hop count between two nodes (0 for the same node).
  int NodeHops(NodeId a, NodeId b) const { return node_hops_[a][b]; }

  // Largest hop distance between any two nodes.
  int MaxHops() const { return max_hops_; }

  // Cpus of every node within `hops` of `node` (inclusive of `node`
  // itself), for 0 <= hops <= MaxHops(). Precomputed: no allocation.
  const CpuSet& CpusWithin(NodeId node, int hops) const {
    return cpus_within_[node * (max_hops_ + 1) + hops];
  }

  CpuSet AllCpus() const { return CpuSet::FirstN(n_cores_); }

  // Renders the hop matrix (Figure 4 as a table).
  std::string HopMatrixToString() const;

 private:
  int n_nodes_;
  int cores_per_node_;
  int smt_width_;
  int n_cores_;
  int max_hops_ = 0;
  std::vector<std::vector<int>> node_hops_;
  std::vector<CpuSet> smt_siblings_;
  std::vector<CpuSet> cpus_within_;  // [node * (max_hops_ + 1) + hops].
};

}  // namespace wcores

#endif  // SRC_TOPO_TOPOLOGY_H_
