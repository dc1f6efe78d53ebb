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

// FNV-1a, 64-bit, over the bytes of `text`.
uint64_t Digest(const std::string& text, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char ch : text) {
    h = (h ^ ch) * 0x100000001b3ULL;
  }
  return h;
}

// One digest of every cpu's rendered tree per (topology, perspective,
// cross-node levels, online mask), pinned from the per-cpu deep-copy builder
// that shared group lists replaced: sharing must not change a single group,
// span, interval or local-group index. Rows are topologies in the order of
// `topos` below; within a row, perspective (kCore0, kPerCore) is outermost,
// then cross_node_levels (true, false), then the mask (all cpus, all but
// cpu 0, all but the last node, one seeded random mask).
constexpr uint64_t kDomainGoldens[5][16] = {
    {0x55b77aac8ea998a5ULL, 0x26a7108e5df7e19fULL, 0x90365e9fbe6c6bd5ULL, 0x26a7108e5df7e19fULL,
     0x55b77aac8ea998a5ULL, 0x26a7108e5df7e19fULL, 0x90365e9fbe6c6bd5ULL, 0x26a7108e5df7e19fULL,
     0x55b77aac8ea998a5ULL, 0x26a7108e5df7e19fULL, 0x90365e9fbe6c6bd5ULL, 0x26a7108e5df7e19fULL,
     0x55b77aac8ea998a5ULL, 0x26a7108e5df7e19fULL, 0x90365e9fbe6c6bd5ULL, 0x26a7108e5df7e19fULL},
    {0x70e8452a24c7d995ULL, 0x0d50d1eb130b1bc1ULL, 0x8ff30512c489a625ULL, 0x355ba9b6e9108f67ULL,
     0x556e9657e7615aedULL, 0x9699bfd2e26194dfULL, 0x8ff30512c489a625ULL, 0xf8ef39ab39ab93f1ULL,
     0x1f0a6ea8ee00aa85ULL, 0x77f7756f7ebee6ddULL, 0x8ff30512c489a625ULL, 0x169e69adf9565ff7ULL,
     0x556e9657e7615aedULL, 0x9699bfd2e26194dfULL, 0x8ff30512c489a625ULL, 0xf8ef39ab39ab93f1ULL},
    {0x1bdd94b018d322f9ULL, 0xee2f31e29cfd5defULL, 0x361967ee7feeb277ULL, 0x97bc1bce07780af0ULL,
     0x262cfd1b8a2f0ecbULL, 0x31caca0055b31666ULL, 0xf2d6031d923bb323ULL, 0xed76a7a16d8b327cULL,
     0x43fb9c7df3a07a61ULL, 0xf23dda24b084c27fULL, 0x793bf60428cd49d7ULL, 0xfe31c34107ebcf52ULL,
     0x262cfd1b8a2f0ecbULL, 0x31caca0055b31666ULL, 0xf2d6031d923bb323ULL, 0xed76a7a16d8b327cULL},
    {0xccc68bd64d51a01fULL, 0x84a04a59b09204c3ULL, 0x58bfc8bb2c388f43ULL, 0x3ebe87e398c041a5ULL,
     0x32b72c4061943843ULL, 0xab599102b9a10586ULL, 0x1d79ba5873654a53ULL, 0x86908cd0876f370cULL,
     0x0e698d37d16809b5ULL, 0x159f4ce2a044a78bULL, 0x4dcc558446e15181ULL, 0x3d8e9078b6a78012ULL,
     0x32b72c4061943843ULL, 0xab599102b9a10586ULL, 0x1d79ba5873654a53ULL, 0x86908cd0876f370cULL},
    {0x4bb3a59ab36c26a9ULL, 0x2470cae2d7548f0cULL, 0x13dd4234e2fc15cdULL, 0xc7175fe3af9ace0cULL,
     0x262cfd1b8a2f0ecbULL, 0x31caca0055b31666ULL, 0xf2d6031d923bb323ULL, 0x567d72b599bd4f61ULL,
     0x3d07aa7d1656eb11ULL, 0xafb98a5b1cb5cfa6ULL, 0x21a7f3229fab43a3ULL, 0x72f4ad2b4827d791ULL,
     0x262cfd1b8a2f0ecbULL, 0x31caca0055b31666ULL, 0xf2d6031d923bb323ULL, 0x567d72b599bd4f61ULL},
};

TEST(DomainsTest, TreesMatchDeepCopyGoldens) {
  const Topology topos[] = {Topology::Flat(1, 4), Topology::Flat(2, 4), Topology::Flat(4, 8),
                            Topology::Bulldozer8x8(), Topology::Example32()};
  Rng rng(31);
  for (int t = 0; t < 5; ++t) {
    const Topology& topo = topos[t];
    CpuSet random;
    for (CpuId c = 0; c < topo.n_cores(); ++c) {
      if (rng.NextBool(0.6)) {
        random.Set(c);
      }
    }
    CpuSet all_but_cpu0 = topo.AllCpus();
    all_but_cpu0.Clear(0);
    const CpuSet masks[] = {topo.AllCpus(), all_but_cpu0,
                            topo.AllCpus() & ~topo.CpusOfNode(topo.n_nodes() - 1), random};
    int i = 0;
    for (GroupPerspective perspective : {GroupPerspective::kCore0, GroupPerspective::kPerCore}) {
      for (bool cross_node : {true, false}) {
        DomainBuildOptions opts;
        opts.perspective = perspective;
        opts.cross_node_levels = cross_node;
        for (const CpuSet& online : masks) {
          auto trees = BuildDomains(topo, online, opts);
          uint64_t h = Digest("");
          for (const DomainTree& tree : trees) {
            h = Digest(DomainTreeToString(tree), h);
          }
          EXPECT_EQ(h, kDomainGoldens[t][i]) << "topology " << t << " config " << i;
          ++i;
        }
      }
    }
  }
}

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
  ASSERT_EQ(smt.groups().size(), 2u);
  EXPECT_EQ(smt.groups()[0].cpus.Count(), 1);
  EXPECT_EQ(smt.local_group, 1);  // cpu 5 is in the second group.
}

TEST(DomainsTest, NodeDomainGroupsAreSmtPairs) {
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  const SchedDomain& node = trees[0].domains[1];
  EXPECT_EQ(node.span.Count(), 8);
  ASSERT_EQ(node.groups().size(), 4u);
  for (const SchedGroup& g : node.groups()) {
    EXPECT_EQ(g.cpus.Count(), 2);
  }
}

// The balancer reports a domain's span as the set of cores a pass examined,
// which is right only if the online groups cover exactly the span, and reads
// a group's weight as its online member count. Checked
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
              for (const SchedGroup& g : sd.groups()) {
                covered |= g.cpus;
                EXPECT_EQ(g.weight, (g.cpus & online).Count()) << "cpu " << c << " domain "
                                                                << sd.name;
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
        EXPECT_TRUE(sd.groups()[sd.local_group].cpus.Test(c));
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
    ASSERT_EQ(top.groups().size(), 2u) << "cpu " << c;
    EXPECT_EQ(top.groups()[0].cpus, group0_nodes) << "cpu " << c;
    EXPECT_EQ(top.groups()[1].cpus, group1_nodes) << "cpu " << c;
  }
}

TEST(DomainsTest, StockGroupsPutNodes1And2Everywhere) {
  // The bug's signature: nodes 1 and 2 (two hops apart) are together in
  // every machine-level group.
  Topology topo = Topology::Bulldozer8x8();
  auto trees = BuildDomains(topo, topo.AllCpus(), Stock());
  const SchedDomain& top = TopDomain(trees[16]);  // A node-2 core.
  for (const SchedGroup& g : top.groups()) {
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
  for (const SchedGroup& g : top.groups()) {
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
    EXPECT_EQ(top.groups()[0].seed_node, topo.NodeOf(c));
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
    ASSERT_EQ(a.groups().size(), b.groups().size());
    // Same group *sets* (order may differ by seed).
    for (const SchedGroup& ga : a.groups()) {
      bool found = false;
      for (const SchedGroup& gb : b.groups()) {
        found = found || ga.cpus == gb.cpus;
      }
      EXPECT_TRUE(found);
    }
  }
}

// Each call builds each distinct group list once: two domains at the same
// level refer to one list exactly when their groups are equal. A second call
// builds its own lists.
TEST(DomainsTest, EachDistinctGroupListIsBuiltOnce) {
  const Topology topos[] = {Topology::Flat(4, 8), Topology::Bulldozer8x8(),
                            Topology::Example32()};
  for (const Topology& topo : topos) {
    for (const auto& opts : {Stock(), Fixed()}) {
      auto trees = BuildDomains(topo, topo.AllCpus(), opts);
      auto again = BuildDomains(topo, topo.AllCpus(), opts);
      for (CpuId a = 0; a < topo.n_cores(); ++a) {
        for (CpuId b = 0; b < topo.n_cores(); ++b) {
          for (size_t l = 0; l < trees[a].domains.size(); ++l) {
            const SchedDomain& da = trees[a].domains[l];
            const SchedDomain& db = trees[b].domains[l];
            bool same_groups = da.groups().size() == db.groups().size();
            for (size_t g = 0; same_groups && g < da.groups().size(); ++g) {
              same_groups = da.groups()[g].cpus == db.groups()[g].cpus &&
                            da.groups()[g].seed_node == db.groups()[g].seed_node;
            }
            EXPECT_EQ(da.shared_groups == db.shared_groups, same_groups)
                << "cpus " << a << " and " << b << " level " << l;
            EXPECT_NE(da.shared_groups, again[b].domains[l].shared_groups);
          }
        }
      }
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
      for (const SchedGroup& g : sd.groups()) {
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
