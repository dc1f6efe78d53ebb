// Scheduling domains and scheduling groups (§2.2.1 of the paper).
//
// Each core owns a bottom-up list of scheduling domains: SMT pair, NUMA node
// (cores sharing an LLC), then one level per interconnect hop distance.
// Within a domain, load balancing moves work between *scheduling groups*.
//
// Two behaviors studied in the paper live here:
//
//  * Scheduling Group Construction bug: for multi-node domains, stock kernels
//    built the group list once from the perspective of Core 0 and reused it
//    for every core, so on asymmetric interconnects two nodes that are two
//    hops apart (Nodes 1 and 2 on the paper's machine) end up together in
//    every group and can never observe an imbalance between each other.
//    GroupPerspective::kCore0 reproduces this; kPerCore is the paper's fix.
//
//  * Missing Scheduling Domains bug: after a core is disabled and re-enabled,
//    domain regeneration dropped the step that rebuilds cross-NUMA levels.
//    Passing cross_node_levels = false reproduces the truncated trees.
#ifndef SRC_TOPO_DOMAINS_H_
#define SRC_TOPO_DOMAINS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/simkit/cpuset.h"
#include "src/simkit/time.h"
#include "src/topo/topology.h"

namespace wcores {

struct SchedGroup {
  CpuSet cpus;
  // For multi-node (possibly overlapping) groups: the node the group was
  // seeded from. Balancing on behalf of the group is the responsibility of
  // that node's cores (the kernel's group_balance_mask) — "the core
  // responsible for load balancing on each node" in the paper's fix.
  NodeId seed_node = kInvalidNode;
  // cpus.Count(), counted once when the group is built, like Linux's
  // sg->group_weight. Groups are built inside online & span and every
  // online change rebuilds them, so this is the group's online member count.
  int weight = 0;
};

// One domain's groups. BuildDomains builds each distinct list once and every
// cpu whose domain has those groups refers to the same immutable copy, as
// Linux cpus share refcounted sched_groups.
using SchedGroupList = std::vector<SchedGroup>;

struct SchedDomain {
  std::string name;   // "SMT", "NODE", "NUMA(1)", ...
  int level = 0;      // 0 = bottom.
  CpuSet span;        // All cpus this domain balances across.
  Time balance_interval = 0;  // How often periodic balancing runs here.

  // Mutable per-core balancing state (each core owns its domains).
  Time last_balance = 0;

  // Index of the group containing the owning cpu, set at build time.
  int local_group = -1;

  // Shared with every other cpu whose domain has the same groups.
  std::shared_ptr<const SchedGroupList> shared_groups;

  const SchedGroupList& groups() const { return *shared_groups; }
};

// The bottom-up domain list owned by one cpu.
struct DomainTree {
  CpuId cpu = kInvalidCpu;
  std::vector<SchedDomain> domains;
};

enum class GroupPerspective {
  kCore0,    // Stock kernel: groups seeded from the domain's first cpu (bug).
  kPerCore,  // Paper's fix: groups seeded from the owning core's node.
};

struct DomainBuildOptions {
  GroupPerspective perspective = GroupPerspective::kCore0;
  // When false, NUMA levels are omitted — the Missing Scheduling Domains bug.
  bool cross_node_levels = true;
  // Balance interval of the bottom domain; each level up doubles it.
  Time base_balance_interval = Milliseconds(4);
};

// Builds a domain tree for every cpu in `online` (offline cpus get an empty
// tree). Group membership is restricted to online cpus. Each distinct group
// list is built once per call and shared by the trees that use it; nothing
// is kept across calls.
std::vector<DomainTree> BuildDomains(const Topology& topo, const CpuSet& online,
                                     const DomainBuildOptions& options);

// Renders one cpu's domain list, e.g. for bench/fig1_domains.
std::string DomainTreeToString(const DomainTree& tree);

}  // namespace wcores

#endif  // SRC_TOPO_DOMAINS_H_
