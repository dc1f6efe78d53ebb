#include "src/topo/domains.h"

#include <gtest/gtest.h>

#include "src/simkit/rng.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

DomainBuildOptions Stock() {
  DomainBuildOptions opts;
  opts.perspective = GroupPerspective::kCore0;
  return opts;
}

DomainBuildOptions Fixed() {
  DomainBuildOptions opts;
  opts.perspective = GroupPerspective::kPerCore;
  return opts;
}

const SchedDomain& TopDomain(const DomainTree& tree) { return tree.domains.back(); }

TEST(DomainsTest, BottomUpLevelsOnBulldozer) {
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  const DomainTree& tree = trees[0];
  ASSERT_EQ(tree.domains.size(), 4u);  // SMT, NODE, NUMA(1), NUMA(2).
  EXPECT_EQ(tree.domains[0].name, "SMT");
  EXPECT_EQ(tree.domains[1].name, "NODE");
  EXPECT_EQ(tree.domains[2].name, "NUMA(1)");
  EXPECT_EQ(tree.domains[3].name, "NUMA(2)");
}

TEST(DomainsTest, SpansNestUpward) {
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    const DomainTree& tree = trees[c];
    for (size_t i = 0; i + 1 < tree.domains.size(); ++i) {
      EXPECT_TRUE(tree.domains[i + 1].span.ContainsAll(tree.domains[i].span))
          << "cpu " << c << " level " << i;
    }
    EXPECT_TRUE(tree.domains.front().span.Test(c));
  }
}

TEST(DomainsTest, SmtDomainHasPerCpuGroups) {
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  const SchedDomain& smt = trees[5].domains[0];
  EXPECT_EQ(smt.span.ToString(), "4-5");
  ASSERT_EQ(smt.groups.size(), 2u);
  EXPECT_EQ(smt.groups[0].cpus.Count(), 1);
  EXPECT_EQ(smt.local_group, 1);  // cpu 5 is in the second group.
}

TEST(DomainsTest, NodeDomainGroupsAreSmtPairs) {
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  const SchedDomain& node = trees[0].domains[1];
  EXPECT_EQ(node.span.Count(), 8);
  ASSERT_EQ(node.groups.size(), 4u);
  for (const SchedGroup& g : node.groups) {
    EXPECT_EQ(g.cpus.Count(), 2);
  }
}

// The balancer reports a domain's span as the set of cores a pass examined,
// which is right only if the online groups cover exactly the span. Checked
// on every machine shape, both group perspectives, with and without the
// cross-node levels, under seeded random online masks.
TEST(DomainsTest, GroupsCoverSpan) {
  const Topology topos[] = {Topology::Flat(1, 4), Topology::Flat(2, 4), Topology::Flat(4, 8),
                            Topology::Bulldozer8x8()};
  Rng rng(2016);
  for (const Topology& topo : topos) {
    for (GroupPerspective perspective : {GroupPerspective::kCore0, GroupPerspective::kPerCore}) {
      for (bool cross_node : {true, false}) {
        DomainBuildOptions opts;
        opts.perspective = perspective;
        opts.cross_node_levels = cross_node;
        for (int round = 0; round < 32; ++round) {
          CpuSet online = topo.AllCpus();
          if (round > 0) {  // Round 0 keeps every cpu online.
            const double p_online = 0.3 + 0.7 * rng.NextDouble();
            online = CpuSet();
            for (CpuId c = 0; c < topo.n_cores(); ++c) {
              if (rng.NextBool(p_online)) {
                online.Set(c);
              }
            }
          }
          auto trees = BuildDomains(topo, online, opts);
          for (CpuId c : online) {
            for (const SchedDomain& sd : trees[c].domains) {
              CpuSet covered;
              for (const SchedGroup& g : sd.groups) {
                covered |= g.cpus;
              }
              EXPECT_EQ(covered, sd.span) << "cpu " << c << " domain " << sd.name << " online "
                                          << online.ToString();
              EXPECT_EQ(sd.span & online, sd.span) << "cpu " << c << " domain " << sd.name;
            }
          }
        }
      }
    }
  }
}

TEST(DomainsTest, LocalGroupContainsOwner) {
  Topology topo = Topology::Bulldozer8x8();
  for (const auto& opts : {Stock(), Fixed()}) {
    auto trees = BuildDomains(topo, topo.AllCpus(), opts);
    for (CpuId c = 0; c < topo.n_cores(); ++c) {
      for (const SchedDomain& sd : trees[c].domains) {
        ASSERT_GE(sd.local_group, 0);
        EXPECT_TRUE(sd.groups[sd.local_group].cpus.Test(c));
      }
    }
  }
}

TEST(DomainsTest, StockMachineGroupsMatchPaperExample) {
  // §3.2: "The first two scheduling groups are thus: {0, 1, 2, 4, 6},
  // {1, 2, 3, 4, 5, 7}" (in node numbers), for *every* core.
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  CpuSet group0_nodes = topo.CpusOfNode(0) | topo.CpusOfNode(1) | topo.CpusOfNode(2) |
                        topo.CpusOfNode(4) | topo.CpusOfNode(6);
  CpuSet group1_nodes = topo.CpusOfNode(1) | topo.CpusOfNode(2) | topo.CpusOfNode(3) |
                        topo.CpusOfNode(4) | topo.CpusOfNode(5) | topo.CpusOfNode(7);
  for (CpuId c : {0, 8, 16, 33, 63}) {
    const SchedDomain& top = TopDomain(trees[c]);
    ASSERT_EQ(top.groups.size(), 2u) << "cpu " << c;
    EXPECT_EQ(top.groups[0].cpus, group0_nodes) << "cpu " << c;
    EXPECT_EQ(top.groups[1].cpus, group1_nodes) << "cpu " << c;
  }
}

TEST(DomainsTest, StockGroupsPutNodes1And2Everywhere) {
  // The bug's signature: nodes 1 and 2 (two hops apart) are together in
  // every machine-level group.
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  const SchedDomain& top = TopDomain(trees[16]);  // A node-2 core.
  for (const SchedGroup& g : top.groups) {
    EXPECT_TRUE(g.cpus.Intersects(topo.CpusOfNode(1)));
    EXPECT_TRUE(g.cpus.Intersects(topo.CpusOfNode(2)));
  }
}

TEST(DomainsTest, FixedGroupsSeparateNodes1And2ForNode2Cores) {
  // "After the fix ... Nodes 1 and 2 are no longer included in all
  // scheduling groups," from the perspective of their own cores.
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Fixed());
  const SchedDomain& top = TopDomain(trees[16]);  // A node-2 core.
  bool some_group_separates = false;
  for (const SchedGroup& g : top.groups) {
    bool has1 = g.cpus.Intersects(topo.CpusOfNode(1));
    bool has2 = g.cpus.Intersects(topo.CpusOfNode(2));
    if (has1 != has2) {
      some_group_separates = true;
    }
  }
  EXPECT_TRUE(some_group_separates);
}

TEST(DomainsTest, FixedGroupsSeededFromOwnNode) {
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Fixed());
  for (CpuId c : {0, 8, 16, 24, 40, 63}) {
    const SchedDomain& top = TopDomain(trees[c]);
    EXPECT_EQ(top.groups[0].seed_node, topo.NodeOf(c));
    EXPECT_EQ(top.local_group, 0);
  }
}

TEST(DomainsTest, PerCoreAndCore0AgreeOnFlatMachines) {
  // On a flat interconnect the perspective cannot matter: groups are the
  // individual nodes either way.
  Topology topo = Topology::Flat(4, 4, 2);
  auto stock = BuildDomains(topo, topo.AllCpus(), Stock());
  auto fixed = BuildDomains(topo, topo.AllCpus(), Fixed());
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    const SchedDomain& a = TopDomain(stock[c]);
    const SchedDomain& b = TopDomain(fixed[c]);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    // Same group *sets* (order may differ by seed).
    for (const SchedGroup& ga : a.groups) {
      bool found = false;
      for (const SchedGroup& gb : b.groups) {
        found = found || ga.cpus == gb.cpus;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(DomainsTest, MissingCrossNodeLevelsStopAtNode) {
  // The Missing Scheduling Domains bug: regeneration without the cross-NUMA
  // step leaves each core only SMT and NODE levels.
  Topology topo = Topology::Bulldozer8x8();
  DomainBuildOptions opts = Stock();
  opts.cross_node_levels = false;
  auto trees = BuildDomains(topo, topo.AllCpus(), opts);
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    ASSERT_EQ(trees[c].domains.size(), 2u);
    EXPECT_EQ(TopDomain(trees[c]).name, "NODE");
    EXPECT_EQ(TopDomain(trees[c]).span.Count(), 8);
  }
}

TEST(DomainsTest, OfflineCpusExcluded) {
  Topology topo = Topology::Flat(2, 4, 2);
  CpuSet online = topo.AllCpus();
  online.Clear(3);
  auto trees = BuildDomains(topo, online, Stock());
  EXPECT_TRUE(trees[3].domains.empty());
  for (CpuId c : online) {
    for (const SchedDomain& sd : trees[c].domains) {
      EXPECT_FALSE(sd.span.Test(3)) << "cpu " << c;
      for (const SchedGroup& g : sd.groups) {
        EXPECT_FALSE(g.cpus.Test(3));
      }
    }
  }
}

TEST(DomainsTest, SmtDomainSkippedWhenSiblingOffline) {
  Topology topo = Topology::Flat(1, 4, 2);
  CpuSet online = topo.AllCpus();
  online.Clear(1);  // cpu 0's sibling.
  auto trees = BuildDomains(topo, online, Stock());
  EXPECT_EQ(trees[0].domains.front().name, "NODE");
}

TEST(DomainsTest, BalanceIntervalsDoublePerLevel) {
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  const auto& domains = trees[0].domains;
  for (size_t i = 0; i + 1 < domains.size(); ++i) {
    EXPECT_EQ(domains[i + 1].balance_interval, domains[i].balance_interval * 2);
  }
  EXPECT_EQ(domains[0].balance_interval, Milliseconds(4));
}

TEST(DomainsTest, SingleCoreMachineHasNoDomains) {
  Topology topo = Topology::Flat(1, 1, 1);
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  EXPECT_TRUE(trees[0].domains.empty());
}

TEST(DomainsTest, TreeRendering) {
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  std::string text = DomainTreeToString(trees[0]);
  EXPECT_NE(text.find("SMT"), std::string::npos);
  EXPECT_NE(text.find("NUMA(2)"), std::string::npos);
  EXPECT_NE(text.find("(local)"), std::string::npos);
}

}  // namespace
}  // namespace wcores
