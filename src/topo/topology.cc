#include "src/topo/topology.h"

#include <cstdio>

#include "src/simkit/check.h"

namespace wcores {

namespace {

// Validates the machine shape before anything is sized from it: CpuSet is
// one word of kMaxCpus bits, so a larger machine would shift past it.
int CheckedCoreCount(int n_nodes, int cores_per_node, int smt_width) {
  WC_CHECK(n_nodes >= 1, "topology: need at least one node");
  WC_CHECK(cores_per_node >= 1, "topology: need at least one core per node");
  WC_CHECK(smt_width >= 1 && cores_per_node % smt_width == 0,
           "topology: smt width must divide cores per node");
  WC_CHECK(cores_per_node <= kMaxCpus / n_nodes, "topology: more cores than kMaxCpus");
  return n_nodes * cores_per_node;
}

}  // namespace

Topology::Topology(int n_nodes, int cores_per_node, int smt_width,
                   std::vector<std::vector<int>> node_hops)
    : n_nodes_(n_nodes),
      cores_per_node_(cores_per_node),
      smt_width_(smt_width),
      n_cores_(CheckedCoreCount(n_nodes, cores_per_node, smt_width)),
      node_hops_(std::move(node_hops)) {
  if (node_hops_.empty()) {
    node_hops_.assign(n_nodes_, std::vector<int>(n_nodes_, 1));
    for (int n = 0; n < n_nodes_; ++n) {
      node_hops_[n][n] = 0;
    }
  }
  WC_CHECK(static_cast<int>(node_hops_.size()) == n_nodes_, "topology: hops matrix size");
  for (int a = 0; a < n_nodes_; ++a) {
    WC_CHECK(static_cast<int>(node_hops_[a].size()) == n_nodes_, "topology: hops matrix size");
    WC_CHECK(node_hops_[a][a] == 0, "topology: nonzero self distance");
    for (int b = 0; b < n_nodes_; ++b) {
      WC_CHECK(node_hops_[a][b] == node_hops_[b][a], "topology: asymmetric hops");
      WC_CHECK(a == b || node_hops_[a][b] >= 1, "topology: distinct nodes less than one hop apart");
      if (node_hops_[a][b] > max_hops_) {
        max_hops_ = node_hops_[a][b];
      }
    }
  }

  // Each node's own cpus at hops 0, then the cpus exactly h hops away, then
  // a prefix union over h.
  const int levels = max_hops_ + 1;
  cpus_within_.resize(static_cast<size_t>(n_nodes_) * levels);
  for (NodeId n = 0; n < n_nodes_; ++n) {
    for (int c = n * cores_per_node_; c < (n + 1) * cores_per_node_; ++c) {
      cpus_within_[n * levels].Set(c);
    }
  }
  for (NodeId a = 0; a < n_nodes_; ++a) {
    CpuSet* within = &cpus_within_[a * levels];
    for (NodeId b = 0; b < n_nodes_; ++b) {
      if (b != a) {
        within[node_hops_[a][b]] |= CpusOfNode(b);
      }
    }
    for (int hops = 1; hops < levels; ++hops) {
      within[hops] |= within[hops - 1];
    }
  }

  smt_siblings_.resize(n_cores_);
  for (CpuId base = 0; base < n_cores_; base += smt_width_) {
    CpuSet siblings;
    for (int i = 0; i < smt_width_; ++i) {
      siblings.Set(base + i);
    }
    for (int i = 0; i < smt_width_; ++i) {
      smt_siblings_[base + i] = siblings;
    }
  }
}

Topology Topology::Flat(int n_nodes, int cores_per_node, int smt_width) {
  return Topology(n_nodes, cores_per_node, smt_width);
}

Topology Topology::Example32() {
  // Ring: 0-1, 0-2, 1-3, 2-3; the opposite corner is two hops away.
  std::vector<std::vector<int>> hops = {
      {0, 1, 1, 2},
      {1, 0, 2, 1},
      {1, 2, 0, 1},
      {2, 1, 1, 0},
  };
  return Topology(/*n_nodes=*/4, /*cores_per_node=*/8, /*smt_width=*/2, std::move(hops));
}

Topology Topology::Bulldozer8x8() {
  // Figure 4's HyperTransport mesh. The paper pins down: Node 0's one-hop
  // neighbours are {1,2,4,6} (its machine-level group is {0,1,2,4,6});
  // Node 3's are {1,2,4,5,7}; Nodes 1 and 2 are two hops apart; every node
  // is reachable from every other in at most two hops. The adjacency below
  // satisfies all of those constraints.
  static const int kAdj[8][8] = {
      // 0  1  2  3  4  5  6  7
      {0, 1, 1, 0, 1, 0, 1, 0},  // 0: 1-hop to 1,2,4,6
      {1, 0, 0, 1, 0, 1, 0, 1},  // 1: 1-hop to 0,3,5,7
      {1, 0, 0, 1, 1, 0, 1, 0},  // 2: 1-hop to 0,3,4,6
      {0, 1, 1, 0, 1, 1, 0, 1},  // 3: 1-hop to 1,2,4,5,7
      {1, 0, 1, 1, 0, 1, 0, 0},  // 4: 1-hop to 0,2,3,5
      {0, 1, 0, 1, 1, 0, 0, 1},  // 5: 1-hop to 1,3,4,7
      {1, 0, 1, 0, 0, 0, 0, 1},  // 6: 1-hop to 0,2,7
      {0, 1, 0, 1, 0, 1, 1, 0},  // 7: 1-hop to 1,3,5,6
  };
  std::vector<std::vector<int>> hops(8, std::vector<int>(8, 2));
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a == b) {
        hops[a][b] = 0;
      } else if (kAdj[a][b] != 0) {
        hops[a][b] = 1;
      }
    }
  }
  return Topology(/*n_nodes=*/8, /*cores_per_node=*/8, /*smt_width=*/2, std::move(hops));
}

std::string Topology::HopMatrixToString() const {
  std::string out = "     ";
  char buf[32];
  for (int b = 0; b < n_nodes_; ++b) {
    std::snprintf(buf, sizeof(buf), "N%-3d", b);
    out += buf;
  }
  out += '\n';
  for (int a = 0; a < n_nodes_; ++a) {
    std::snprintf(buf, sizeof(buf), "N%-3d ", a);
    out += buf;
    for (int b = 0; b < n_nodes_; ++b) {
      std::snprintf(buf, sizeof(buf), "%-4d", node_hops_[a][b]);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace wcores
