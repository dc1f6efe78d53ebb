#include "src/topo/domains.h"

#include <cassert>
#include <cstdio>

namespace wcores {

namespace {

// Greedy group covering for a multi-node domain at hop distance `dist`:
// the first group is seeded from `seed_node` and contains all nodes within
// dist-1 hops of it; each following group is seeded from the lowest-numbered
// node not yet covered. This is exactly the construction §3.2 describes
// (groups may overlap on asymmetric interconnects).
std::vector<SchedGroup> BuildNumaGroups(const Topology& topo, const CpuSet& online,
                                        const CpuSet& span, int dist, NodeId seed_node) {
  std::vector<SchedGroup> groups;
  std::vector<bool> in_span(topo.n_nodes(), false);
  std::vector<bool> covered(topo.n_nodes(), false);
  for (NodeId n = 0; n < topo.n_nodes(); ++n) {
    in_span[n] = topo.CpusOfNode(n).Intersects(span);
  }

  NodeId seed = seed_node;
  while (seed != kInvalidNode) {
    SchedGroup group;
    group.seed_node = seed;
    for (NodeId n : topo.NodesWithin(seed, dist - 1)) {
      if (!in_span[n]) {
        continue;
      }
      group.cpus |= topo.CpusOfNode(n) & online & span;
      covered[n] = true;
    }
    if (!group.cpus.Empty()) {
      groups.push_back(group);
    }
    seed = kInvalidNode;
    for (NodeId n = 0; n < topo.n_nodes(); ++n) {
      if (in_span[n] && !covered[n]) {
        seed = n;
        break;
      }
    }
  }
  return groups;
}

void FinishDomain(SchedDomain& sd, CpuId cpu) {
  sd.local_group = -1;
  for (size_t i = 0; i < sd.groups.size(); ++i) {
    if (sd.groups[i].cpus.Test(cpu)) {
      sd.local_group = static_cast<int>(i);
      break;
    }
  }
  assert(sd.local_group >= 0 && "owning cpu must appear in one of its groups");
}

}  // namespace

std::vector<DomainTree> BuildDomains(const Topology& topo, const CpuSet& online,
                                     const DomainBuildOptions& options) {
  std::vector<DomainTree> trees(topo.n_cores());

  for (CpuId cpu = 0; cpu < topo.n_cores(); ++cpu) {
    DomainTree& tree = trees[cpu];
    tree.cpu = cpu;
    if (!online.Test(cpu)) {
      continue;
    }

    int level = 0;
    Time interval = options.base_balance_interval;
    CpuSet prev_span;

    // Level: SMT siblings sharing functional units.
    if (topo.smt_width() > 1) {
      CpuSet span = topo.SmtSiblings(cpu) & online;
      if (span.Count() > 1) {
        SchedDomain sd;
        sd.name = "SMT";
        sd.level = level++;
        sd.span = span;
        sd.balance_interval = interval;
        for (CpuId c : span) {
          sd.groups.push_back(SchedGroup{CpuSet::Single(c)});
        }
        FinishDomain(sd, cpu);
        tree.domains.push_back(std::move(sd));
        prev_span = span;
        interval *= 2;
      }
    }

    // Level: the NUMA node (cores sharing the LLC). Groups are SMT pairs.
    {
      CpuSet span = topo.CpusOfNode(topo.NodeOf(cpu)) & online;
      if (span.Count() > 1 && span != prev_span) {
        SchedDomain sd;
        sd.name = "NODE";
        sd.level = level++;
        sd.span = span;
        sd.balance_interval = interval;
        CpuSet seen;
        for (CpuId c : span) {
          if (seen.Test(c)) {
            continue;
          }
          CpuSet pair = topo.SmtSiblings(c) & span;
          seen |= pair;
          sd.groups.push_back(SchedGroup{pair});
        }
        FinishDomain(sd, cpu);
        tree.domains.push_back(std::move(sd));
        prev_span = span;
        interval *= 2;
      }
    }

    // NUMA levels: nodes within 1 hop, 2 hops, ... The Missing Scheduling
    // Domains bug drops these levels entirely after hotplug.
    if (options.cross_node_levels && topo.n_nodes() > 1) {
      for (int dist = 1; dist <= topo.MaxHops(); ++dist) {
        CpuSet span = topo.CpusWithin(topo.NodeOf(cpu), dist) & online;
        if (span == prev_span || span.Count() <= 1) {
          continue;
        }
        SchedDomain sd;
        char name[32];
        std::snprintf(name, sizeof(name), "NUMA(%d)", dist);
        sd.name = name;
        sd.level = level++;
        sd.span = span;
        sd.balance_interval = interval;

        NodeId seed;
        if (options.perspective == GroupPerspective::kCore0) {
          // Bug: groups seeded from the first cpu of the span, i.e. from
          // Core 0's node for the machine-wide domain, and shared by all
          // cores regardless of their own position in the interconnect.
          seed = topo.NodeOf(span.First());
        } else {
          seed = topo.NodeOf(cpu);
        }
        sd.groups = BuildNumaGroups(topo, online, span, dist, seed);
        FinishDomain(sd, cpu);
        tree.domains.push_back(std::move(sd));
        prev_span = span;
        interval *= 2;
      }
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
    for (size_t i = 0; i < sd.groups.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "        group %zu%s: %s\n", i,
                    static_cast<int>(i) == sd.local_group ? " (local)" : "",
                    sd.groups[i].cpus.ToString().c_str());
      out += buf;
    }
  }
  return out;
}

}  // namespace wcores
