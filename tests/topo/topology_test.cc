#include "src/topo/topology.h"

#include <gtest/gtest.h>

#include <initializer_list>

#include "src/topo/domains.h"

namespace wcores {
namespace {

CpuSet CpusOfNodes(const Topology& topo, std::initializer_list<NodeId> nodes) {
  CpuSet set;
  for (NodeId n : nodes) {
    set |= topo.CpusOfNode(n);
  }
  return set;
}

TEST(TopologyTest, FlatBasics) {
  Topology topo = Topology::Flat(4, 8, 2);
  EXPECT_EQ(topo.n_cores(), 32);
  EXPECT_EQ(topo.n_nodes(), 4);
  EXPECT_EQ(topo.cores_per_node(), 8);
  EXPECT_EQ(topo.smt_width(), 2);
  EXPECT_EQ(topo.MaxHops(), 1);
}

TEST(TopologyTest, NodeOfIsNodeMajor) {
  Topology topo = Topology::Flat(4, 8, 2);
  EXPECT_EQ(topo.NodeOf(0), 0);
  EXPECT_EQ(topo.NodeOf(7), 0);
  EXPECT_EQ(topo.NodeOf(8), 1);
  EXPECT_EQ(topo.NodeOf(31), 3);
}

TEST(TopologyTest, CpusOfNodeAreContiguous) {
  Topology topo = Topology::Flat(4, 8, 2);
  EXPECT_EQ(topo.CpusOfNode(1).ToString(), "8-15");
  EXPECT_EQ(topo.CpusOfNode(1).Count(), 8);
}

TEST(TopologyTest, SmtSiblingsPairUp) {
  Topology topo = Topology::Flat(2, 8, 2);
  EXPECT_EQ(topo.SmtSiblings(0).ToString(), "0-1");
  EXPECT_EQ(topo.SmtSiblings(1).ToString(), "0-1");
  EXPECT_EQ(topo.SmtSiblings(6).ToString(), "6-7");
  EXPECT_TRUE(topo.SmtSiblings(5).Test(5));
}

TEST(TopologyTest, SmtWidthOneIsSelfOnly) {
  Topology topo = Topology::Flat(1, 4, 1);
  EXPECT_EQ(topo.SmtSiblings(2).Count(), 1);
  EXPECT_TRUE(topo.SmtSiblings(2).Test(2));
}

TEST(TopologyTest, FlatHopsAreUniform) {
  Topology topo = Topology::Flat(4, 4, 1);
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      EXPECT_EQ(topo.NodeHops(a, b), a == b ? 0 : 1);
    }
  }
}

TEST(TopologyTest, AllCpus) {
  Topology topo = Topology::Flat(2, 4, 1);
  EXPECT_EQ(topo.AllCpus().Count(), 8);
}

// --- The paper's machine (Figure 4 / Table 5) ---------------------------------

TEST(BulldozerTest, SixtyFourCoresEightNodes) {
  Topology topo = Topology::Bulldozer8x8();
  EXPECT_EQ(topo.n_cores(), 64);
  EXPECT_EQ(topo.n_nodes(), 8);
  EXPECT_EQ(topo.cores_per_node(), 8);
  EXPECT_EQ(topo.smt_width(), 2);
}

TEST(BulldozerTest, Node0OneHopNeighboursMatchPaper) {
  // §2.2.1: "the first scheduling group contains the cores of Node 0, plus
  // the cores of all the nodes that are one hop apart from Node 0, namely
  // Nodes 1, 2, 4 and 6."
  Topology topo = Topology::Bulldozer8x8();
  EXPECT_EQ(topo.CpusWithin(0, 1), CpusOfNodes(topo, {0, 1, 2, 4, 6}));
}

TEST(BulldozerTest, Node3OneHopNeighboursMatchPaper) {
  // "The second scheduling group contains ... Node 3, plus cores of all
  // nodes that are one hop apart from Node 3: Nodes 1, 2, 4, 5, 7."
  Topology topo = Topology::Bulldozer8x8();
  EXPECT_EQ(topo.CpusWithin(3, 1), CpusOfNodes(topo, {1, 2, 3, 4, 5, 7}));
}

TEST(BulldozerTest, Nodes1And2AreTwoHopsApart) {
  // §3.2: "Nodes 1 and 2 are two hops apart."
  Topology topo = Topology::Bulldozer8x8();
  EXPECT_EQ(topo.NodeHops(1, 2), 2);
}

TEST(BulldozerTest, EveryNodeReachableWithinTwoHops) {
  // Figure 1: "all nodes are reachable in 2 hops."
  Topology topo = Topology::Bulldozer8x8();
  EXPECT_EQ(topo.MaxHops(), 2);
  for (NodeId a = 0; a < 8; ++a) {
    EXPECT_EQ(topo.CpusWithin(a, 2), topo.AllCpus());
  }
}

TEST(BulldozerTest, HopMatrixSymmetricZeroDiagonal) {
  Topology topo = Topology::Bulldozer8x8();
  for (NodeId a = 0; a < 8; ++a) {
    EXPECT_EQ(topo.NodeHops(a, a), 0);
    for (NodeId b = 0; b < 8; ++b) {
      EXPECT_EQ(topo.NodeHops(a, b), topo.NodeHops(b, a));
    }
  }
}

TEST(BulldozerTest, CpusWithinUnionsNodes) {
  Topology topo = Topology::Bulldozer8x8();
  CpuSet within1 = topo.CpusWithin(0, 1);
  EXPECT_EQ(within1.Count(), 5 * 8);
  EXPECT_TRUE(within1.ContainsAll(topo.CpusOfNode(0)));
  EXPECT_TRUE(within1.ContainsAll(topo.CpusOfNode(6)));
  EXPECT_FALSE(within1.Intersects(topo.CpusOfNode(3)));
  EXPECT_EQ(topo.CpusWithin(0, 2).Count(), 64);
}

TEST(BulldozerTest, HopMatrixRendering) {
  Topology topo = Topology::Bulldozer8x8();
  std::string matrix = topo.HopMatrixToString();
  EXPECT_NE(matrix.find("N0"), std::string::npos);
  EXPECT_NE(matrix.find("N7"), std::string::npos);
}

// --- Figure 1's 32-core example machine ---------------------------------------

TEST(Example32Test, MatchesFigure1Description) {
  Topology topo = Topology::Example32();
  EXPECT_EQ(topo.n_cores(), 32);
  EXPECT_EQ(topo.n_nodes(), 4);
  EXPECT_EQ(topo.smt_width(), 2);
  // "at the second level of the hierarchy we have a group of three nodes
  // ... reachable from the first core in one hop."
  EXPECT_EQ(topo.CpusWithin(0, 1), CpusOfNodes(topo, {0, 1, 2}));
  // "At the 4th level, we have all nodes of the machine because all nodes
  // are reachable in 2 hops."
  EXPECT_EQ(topo.CpusWithin(0, 2), topo.AllCpus());
  EXPECT_EQ(topo.MaxHops(), 2);
}

TEST(Example32Test, DomainLevelsMatchFigure1) {
  Topology topo = Topology::Example32();
  DomainBuildOptions opts;
  auto trees = BuildDomains(topo, topo.AllCpus(), opts);
  const auto& domains = trees[0].domains;
  ASSERT_EQ(domains.size(), 4u);
  EXPECT_EQ(domains[0].span.Count(), 2);   // SMT pair.
  EXPECT_EQ(domains[1].span.Count(), 8);   // Node.
  EXPECT_EQ(domains[2].span.Count(), 24);  // Node + the two 1-hop nodes.
  EXPECT_EQ(domains[3].span.Count(), 32);  // Whole machine.
}

// Shape checks survive Release builds: a machine wider than kMaxCpus would
// otherwise write past CpuSet's words.
TEST(TopologyDeathTest, MoreCoresThanKMaxCpusAborts) {
  EXPECT_DEATH(Topology::Flat(64, 8), "more cores than kMaxCpus");
}

TEST(TopologyDeathTest, ZeroNodesAborts) {
  EXPECT_DEATH(Topology::Flat(0, 4), "need at least one node");
}

// A hop count indexes the precomputed CpusWithin table, so distinct nodes
// zero or fewer hops apart must be rejected, not folded into a node.
TEST(TopologyDeathTest, DistinctNodesLessThanOneHopApartAbort) {
  for (int hops : {0, -1}) {
    EXPECT_DEATH(Topology(2, 2, 1, {{0, hops}, {hops, 0}}), "less than one hop apart");
  }
}

}  // namespace
}  // namespace wcores
