#include "src/topo/domains.h"

#include <cstdio>

#include "src/simkit/check.h"

namespace wcores {

namespace {

using SharedGroups = std::shared_ptr<const SchedGroupList>;

// Greedy group covering for a multi-node domain at hop distance `dist`:
// the first group is seeded from `seed_node` and contains all nodes within
// dist-1 hops of it; each following group is seeded from the lowest-numbered
// node not yet covered. This is exactly the construction §3.2 describes
// (groups may overlap on asymmetric interconnects). `span` is online-only
// and contains a cpu of `seed_node`, so no group is empty.
SharedGroups BuildNumaGroups(const Topology& topo, const CpuSet& span, int dist,
                             NodeId seed_node) {
  // Every cpu of every node the span touches; a node is covered, and its
  // cpus leave `uncovered`, once a group's seed is within dist-1 hops of it.
  CpuSet uncovered;
  for (NodeId n = 0; n < topo.n_nodes(); ++n) {
    if (topo.CpusOfNode(n).Intersects(span)) {
      uncovered |= topo.CpusOfNode(n);
    }
  }
  SchedGroupList groups;
  groups.reserve(uncovered.Count() / topo.cores_per_node());
  for (NodeId seed = seed_node;;) {
    const CpuSet& reach = topo.CpusWithin(seed, dist - 1);
    groups.push_back(SchedGroup{reach & span, seed});
    uncovered &= ~reach;
    CpuId next = uncovered.First();
    if (next == kInvalidCpu) {
      break;
    }
    seed = topo.NodeOf(next);
  }
  return std::make_shared<const SchedGroupList>(std::move(groups));
}

// Groups of one cpu each: the SMT level.
SharedGroups BuildSingletonGroups(const CpuSet& span) {
  SchedGroupList groups;
  groups.reserve(span.Count());
  for (CpuId c : span) {
    groups.push_back(SchedGroup{CpuSet::Single(c)});
  }
  return std::make_shared<const SchedGroupList>(std::move(groups));
}

// Groups of SMT siblings: the NODE level.
SharedGroups BuildSmtGroups(const Topology& topo, const CpuSet& span) {
  SchedGroupList groups;
  groups.reserve(span.Count());
  CpuSet seen;
  for (CpuId c : span) {
    if (seen.Test(c)) {
      continue;
    }
    CpuSet pair = topo.SmtSiblings(c) & span;
    seen |= pair;
    groups.push_back(SchedGroup{pair});
  }
  return std::make_shared<const SchedGroupList>(std::move(groups));
}

// A NUMA level's group list, keyed by what determines it.
struct NumaGroups {
  int dist = 0;
  CpuSet span;
  NodeId seed = kInvalidNode;
  SharedGroups groups;
};

}  // namespace

std::vector<DomainTree> BuildDomains(const Topology& topo, const CpuSet& online,
                                     const DomainBuildOptions& options) {
  const bool numa = options.cross_node_levels && topo.n_nodes() > 1;
  const int max_hops = numa ? topo.MaxHops() : 0;
  std::vector<DomainTree> trees(topo.n_cores());

  // The group lists this call has built. An SMT list is found by its span's
  // first cpu, a NODE list by its node, and a NUMA list by (dist, span,
  // seed), which determine it: nodes whose spans and seeds coincide (every
  // node's machine-wide domain under kCore0) share one list.
  std::vector<SharedGroups> smt_groups(topo.n_cores());
  std::vector<SharedGroups> node_groups(topo.n_nodes());
  std::vector<NumaGroups> numa_groups;
  std::vector<std::string> numa_names(max_hops + 1);
  for (int dist = 1; dist <= max_hops; ++dist) {
    char name[32];
    std::snprintf(name, sizeof(name), "NUMA(%d)", dist);
    numa_names[dist] = name;
  }

  for (CpuId cpu = 0; cpu < topo.n_cores(); ++cpu) {
    DomainTree& tree = trees[cpu];
    tree.cpu = cpu;
    if (!online.Test(cpu)) {
      continue;
    }
    tree.domains.reserve(2 + max_hops);

    Time interval = options.base_balance_interval;
    CpuSet prev_span;
    auto push = [&](const std::string& name, const CpuSet& span, const SharedGroups& groups) {
      SchedDomain& sd = tree.domains.emplace_back();
      sd.name = name;
      sd.level = static_cast<int>(tree.domains.size()) - 1;
      sd.span = span;
      sd.balance_interval = interval;
      sd.shared_groups = groups;
      for (size_t i = 0; i < groups->size(); ++i) {
        if ((*groups)[i].cpus.Test(cpu)) {
          sd.local_group = static_cast<int>(i);
          break;
        }
      }
      WC_CHECK(sd.local_group >= 0, "owning cpu must appear in one of its groups");
      prev_span = span;
      interval *= 2;
    };

    // Level: SMT siblings sharing functional units.
    if (topo.smt_width() > 1) {
      CpuSet span = topo.SmtSiblings(cpu) & online;
      if (span.Count() > 1) {
        SharedGroups& groups = smt_groups[span.First()];
        if (groups == nullptr) {
          groups = BuildSingletonGroups(span);
        }
        push("SMT", span, groups);
      }
    }

    // Level: the NUMA node (cores sharing the LLC). Groups are SMT pairs.
    const NodeId node = topo.NodeOf(cpu);
    {
      CpuSet span = topo.CpusOfNode(node) & online;
      if (span.Count() > 1 && span != prev_span) {
        SharedGroups& groups = node_groups[node];
        if (groups == nullptr) {
          groups = BuildSmtGroups(topo, span);
        }
        push("NODE", span, groups);
      }
    }

    // NUMA levels: nodes within 1 hop, 2 hops, ... The Missing Scheduling
    // Domains bug drops these levels entirely after hotplug.
    for (int dist = 1; dist <= max_hops; ++dist) {
      CpuSet span = topo.CpusWithin(node, dist) & online;
      if (span == prev_span || span.Count() <= 1) {
        continue;
      }
      // Bug (kCore0): groups seeded from the first cpu of the span, i.e.
      // from Core 0's node for the machine-wide domain, and shared by all
      // cores regardless of their own position in the interconnect.
      NodeId seed = options.perspective == GroupPerspective::kCore0 ? topo.NodeOf(span.First())
                                                                    : node;
      const NumaGroups* built = nullptr;
      for (const NumaGroups& g : numa_groups) {
        if (g.dist == dist && g.seed == seed && g.span == span) {
          built = &g;
          break;
        }
      }
      if (built == nullptr) {
        built = &numa_groups.emplace_back(
            NumaGroups{dist, span, seed, BuildNumaGroups(topo, span, dist, seed)});
      }
      push(numa_names[dist], span, built->groups);
    }
  }
  return trees;
}

std::string DomainTreeToString(const DomainTree& tree) {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "cpu %d:\n", tree.cpu);
  out += buf;
  for (const SchedDomain& sd : tree.domains) {
    std::snprintf(buf, sizeof(buf), "  [%d] %-8s span=%s interval=%s\n", sd.level,
                  sd.name.c_str(), sd.span.ToString().c_str(),
                  FormatTime(sd.balance_interval).c_str());
    out += buf;
    for (size_t i = 0; i < sd.groups().size(); ++i) {
      std::snprintf(buf, sizeof(buf), "        group %zu%s: %s\n", i,
                    static_cast<int>(i) == sd.local_group ? " (local)" : "",
                    sd.groups()[i].cpus.ToString().c_str());
      out += buf;
    }
  }
  return out;
}

}  // namespace wcores
