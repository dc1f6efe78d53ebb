// Figure 1 + Figure 4 + Table 5: the machine and its scheduling domains.
//
// Prints the hardware description (Table 5), the inter-node hop matrix
// (Figure 4), the scheduling-domain hierarchy of a core (Figure 1), and the
// §3.2 example: the machine-level scheduling groups as built by the stock
// kernel (from Core 0's perspective, shared by everyone) versus the fix
// (each core's own perspective).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/topo/domains.h"
#include "src/topo/topology.h"

int main(int argc, char** argv) {
  using namespace wcores;
  BenchOptions opts = ParseBenchArgs(argc, argv);
  (void)opts;
  Topology topo = Topology::Bulldozer8x8();

  PrintHeader("Figure 1 / Figure 4 / Table 5: machine topology and scheduling domains",
              "EuroSys'16 Figures 1 and 4, Table 5");

  std::printf("Table 5 — hardware:\n"
              "  CPUs:         8 x 8-core Opteron 6272 (64 threads total)\n"
              "  Clock:        2.1 GHz\n"
              "  Caches:       768 KB L1, 16 MB L2, 12 MB L3 per CPU\n"
              "  Memory:       512 GB of 1.6 GHz DDR-3\n"
              "  Interconnect: HyperTransport 3.0\n\n");

  std::printf("Figure 4 — inter-node hop matrix:\n%s\n", topo.HopMatrixToString().c_str());

  // Figure 1 proper is drawn for a 32-core, 4-node example machine.
  Topology example = Topology::Example32();
  DomainBuildOptions example_opts;
  auto example_trees = BuildDomains(example, example.AllCpus(), example_opts);
  std::printf("Figure 1 — scheduling domains of core 0 on the 32-core example machine\n"
              "(pair, node, node + one-hop nodes, whole machine):\n%s\n",
              DomainTreeToString(example_trees[0]).c_str());

  DomainBuildOptions stock;
  stock.perspective = GroupPerspective::kCore0;
  auto stock_trees = BuildDomains(topo, topo.AllCpus(), stock);

  std::printf("The same hierarchy on the experimental machine (stock construction):\n%s\n",
              DomainTreeToString(stock_trees[0]).c_str());

  DomainBuildOptions fixed;
  fixed.perspective = GroupPerspective::kPerCore;
  auto fixed_trees = BuildDomains(topo, topo.AllCpus(), fixed);

  CpuId node2_cpu = topo.CpusOfNode(2).First();
  std::printf("Section 3.2 example — machine-level groups seen by a core of Node 2:\n");
  std::printf("stock (Core-0 perspective, bug):\n");
  const SchedDomain& stock_top = stock_trees[node2_cpu].domains.back();
  for (size_t g = 0; g < stock_top.groups().size(); ++g) {
    std::printf("  group %zu%s: cpus %s\n", g,
                static_cast<int>(g) == stock_top.local_group ? " (local)" : "",
                stock_top.groups()[g].cpus.ToString().c_str());
  }
  std::printf("fixed (per-core perspective):\n");
  const SchedDomain& fixed_top = fixed_trees[node2_cpu].domains.back();
  for (size_t g = 0; g < fixed_top.groups().size(); ++g) {
    std::printf("  group %zu%s: cpus %s\n", g,
                static_cast<int>(g) == fixed_top.local_group ? " (local)" : "",
                fixed_top.groups()[g].cpus.ToString().c_str());
  }
  std::printf("\nNote how with the bug, Nodes 1 (cpus 8-15) and 2 (cpus 16-23) appear\n"
              "together in every group, so neither can ever observe an imbalance in the\n"
              "other; the fix separates them in Node 2's own group list.\n");
  return 0;
}
