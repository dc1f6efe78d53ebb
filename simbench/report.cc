#include "simbench/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>

namespace simbench {

namespace {

std::string Format(const char* fmt, double a, double b = 0, double c = 0, double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Ledger groups for the share summary, as [first, last] slot ranges.
struct Group {
  const char* name;
  int first;
  int last;
};
constexpr Group kGroups[] = {
    {"setup", kSetupTopology, kSetupWorkload},
    {"policy", kPolicyWakeCpu, kPolicyRqEvent},
    {"trace_hash", kHashFirst, kHashFirst + 8},
    {"trace_stream", kStream, kStream},
    {"engine_residual", kRun, kRun},
};

double Sum(const std::array<double, kLayerCount>& v, int first, int last) {
  double total = 0;
  for (int l = first; l <= last; ++l) {
    total += v[l];
  }
  return total;
}

}  // namespace

void CoreCounters::Add(const wcores::SchedStats& s) {
  balance_calls += s.balance_calls;
  balance_success += s.balance_success;
  group_cache_hits += s.balance_group_cache_hits;
  group_cache_misses += s.balance_group_cache_misses;
  interval_skips += s.balance_interval_skips;
  designation_skips += s.balance_designation_skips;
  wakeups_on_idle += s.wakeups_on_idle;
  wakeups_on_busy += s.wakeups_on_busy;
  migrations += s.TotalMigrations();
  nohz_kicks += s.nohz_kicks;
  ticks += s.ticks;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void BatchTimes::Add(const std::vector<int64_t>& per_scenario_ns) {
  int64_t total = 0;
  for (size_t i = 0; i < per_scenario_ns.size(); ++i) {
    fastest_ns_[i] = std::min(fastest_ns_[i], per_scenario_ns[i]);
    total += per_scenario_ns[i];
  }
  batch_s_.push_back(static_cast<double>(total) * 1e-9);
}

double BatchTimes::FastestSeconds() const {
  int64_t total = 0;
  for (int64_t ns : fastest_ns_) {
    total += ns;
  }
  return static_cast<double>(total) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB.
    }
  }
  return 0;
}

SpanCost CalibrateSpanCost() {
  constexpr int kSpans = 200000;
  std::vector<double> total;
  std::vector<double> inner;
  for (int round = 0; round < 7; ++round) {
    Ledger ledger;
    ledger.Enter(kRun);
    for (int i = 0; i < kSpans; ++i) {
      Span span(&ledger, kPolicyPickNext);
    }
    int64_t duration = ledger.Exit();
    total.push_back(static_cast<double>(duration) / kSpans);
    inner.push_back(static_cast<double>(ledger.self_ns(kPolicyPickNext)) / kSpans);
  }
  // Fastest round, as for the batches: interference only adds time.
  size_t best = std::min_element(total.begin(), total.end()) - total.begin();
  return {total[best], inner[best]};
}

std::string LayerName(int layer) {
  switch (layer) {
    case kSetupTopology:
      return "setup.topology";
    case kSetupSimulator:
      return "setup.simulator";
    case kSetupWorkload:
      return "setup.workload";
    case kRun:
      return "engine.residual";
    case kStream:
      return "trace.stream";
    default:
      break;
  }
  if (layer >= kHashFirst) {
    return std::string("trace.hash.") + kTraceKinds[layer - kHashFirst];
  }
  return std::string("policy.") + kPolicyHooks[layer - kPolicyWakeCpu];
}

LayerTotals ReduceLedgers(const std::vector<Ledger>& ledgers, const SpanCost& cost) {
  LayerTotals t;
  if (ledgers.empty()) {
    return t;
  }
  // The traced batch with the least host time is the one host interference
  // disturbed least (see BatchTimes); its ledger is reported whole, so the
  // layers still sum to its host time.
  auto host_ns = [](const Ledger& l) {
    int64_t total = 0;
    for (int root = kSetupTopology; root <= kRun; ++root) {
      total += l.inclusive_ns(root);
    }
    return total;
  };
  const Ledger* fastest = &ledgers.front();
  for (const Ledger& ledger : ledgers) {
    if (host_ns(ledger) < host_ns(*fastest)) {
      fastest = &ledger;
    }
  }
  for (int l = 0; l < kLayerCount; ++l) {
    t.self_ns[l] = static_cast<double>(fastest->self_ns(l));
    t.calls[l] = fastest->calls(l);
    // A nested span's own clock reads land partly in its duration (inner)
    // and partly in its parent's (total - inner). Roots are phases whose
    // clock reads the untraced run pays as well.
    double own = IsRoot(l) ? 0 : static_cast<double>(t.calls[l]) * cost.inner_ns;
    double children =
        static_cast<double>(fastest->child_calls(l)) * (cost.total_ns - cost.inner_ns);
    t.net_ns[l] = std::max(0.0, t.self_ns[l] - own - children);
  }
  return t;
}

void Report::EndToEnd(const BatchTimes& run, const BatchTimes& setup, double peak_rss_mb) {
  lines_.push_back(Format("run_s %.5f (median batch %.5f); setup_s %.6f (median batch %.6f)",
                          run.FastestSeconds(), run.MedianBatchSeconds(),
                          setup.FastestSeconds(), setup.MedianBatchSeconds()));
  Add("run_s", run.FastestSeconds(), "s");
  Add("setup_s", setup.FastestSeconds(), "s");
  Add("peak_rss_mb", peak_rss_mb, "MB");
}

void Report::Layers(const std::vector<Ledger>& ledgers, const CoreCounters& core,
                    uint64_t sim_events, const BatchTimes& untraced_run,
                    const BatchTimes& traced_run, const SpanCost& cost) {
  LayerTotals t = ReduceLedgers(ledgers, cost);

  Add("setup.topology_ns", t.self_ns[kSetupTopology], "ns");
  Add("setup.simulator_ns", t.self_ns[kSetupSimulator], "ns");
  Add("setup.workload_ns", t.self_ns[kSetupWorkload], "ns");
  for (int h = 0; h < 9; ++h) {
    std::string base = std::string("policy.") + kPolicyHooks[h];
    Add(base + ".calls", static_cast<double>(t.calls[kPolicyWakeCpu + h]), "count");
    Add(base + ".self_ns", t.self_ns[kPolicyWakeCpu + h], "ns");
  }
  Add("core.balance_calls", static_cast<double>(core.balance_calls), "count");
  Add("core.balance.useful_ratio", Ratio(core.balance_success, core.balance_calls), "ratio");
  Add("core.group_cache.hit_ratio",
      Ratio(core.group_cache_hits, core.group_cache_hits + core.group_cache_misses), "ratio");
  Add("core.balance_interval_skips", static_cast<double>(core.interval_skips), "count");
  Add("core.balance_designation_skips", static_cast<double>(core.designation_skips), "count");
  Add("core.wakeups_on_idle", static_cast<double>(core.wakeups_on_idle), "count");
  Add("core.wakeups_on_busy", static_cast<double>(core.wakeups_on_busy), "count");
  Add("core.migrations", static_cast<double>(core.migrations), "count");
  Add("core.nohz_kicks", static_cast<double>(core.nohz_kicks), "count");
  Add("core.ticks", static_cast<double>(core.ticks), "count");
  for (int k = 0; k < 9; ++k) {
    std::string base = std::string("trace.hash.") + kTraceKinds[k];
    Add(base + ".calls", static_cast<double>(t.calls[kHashFirst + k]), "count");
    Add(base + ".self_ns", t.self_ns[kHashFirst + k], "ns");
  }
  Add("trace.stream.calls", static_cast<double>(t.calls[kStream]), "count");
  Add("trace.stream.self_ns", t.self_ns[kStream], "ns");
  Add("simkit.events", static_cast<double>(sim_events), "count");
  Add("engine.residual_ns", t.self_ns[kRun], "ns");
  Add("engine.ns_per_event",
      sim_events == 0 ? 0 : t.self_ns[kRun] / static_cast<double>(sim_events), "ns");
  Add("span_cost_ns", cost.total_ns, "ns");
  Add("trace_overhead_s", traced_run.FastestSeconds() - untraced_run.FastestSeconds(), "s");

  double raw_total = Sum(t.self_ns, 0, kLayerCount - 1);
  double net_total = Sum(t.net_ns, 0, kLayerCount - 1);
  for (const Group& g : kGroups) {
    Add(std::string("share.") + g.name + ".raw_pct",
        100 * Sum(t.self_ns, g.first, g.last) / raw_total, "%");
    Add(std::string("share.") + g.name + ".net_pct",
        100 * Sum(t.net_ns, g.first, g.last) / net_total, "%");
  }

  // The ledger table, largest raw share first.
  std::vector<int> order;
  for (int l = 0; l < kLayerCount; ++l) {
    if (t.calls[l] > 0) {
      order.push_back(l);
    }
  }
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return t.self_ns[a] > t.self_ns[b]; });
  lines_.push_back(Format("span cost %.1f ns (%.1f ns inside the span); traced run %.4f s, "
                          "untraced %.4f s",
                          cost.total_ns, cost.inner_ns, traced_run.FastestSeconds(),
                          untraced_run.FastestSeconds()));
  lines_.push_back(Format("traced host time %.4f s; net of span cost %.4f s", raw_total * 1e-9,
                          net_total * 1e-9));
  lines_.push_back("layer                              calls      self_ms   raw%   net%");
  for (int l : order) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-28s %12llu %12.3f %6.1f %6.1f", LayerName(l).c_str(),
                  static_cast<unsigned long long>(t.calls[l]), t.self_ns[l] * 1e-6,
                  100 * t.self_ns[l] / raw_total, 100 * t.net_ns[l] / net_total);
    lines_.push_back(buf);
  }

  // Why this workload: the share of the layers that motivated it, raw and
  // net of span cost, against the largest other single layer (the three
  // setup phases count as one).
  auto why = [&](const char* what, std::initializer_list<int> layers) {
    std::string line = std::string("why ") + workload_ + ": " + what;
    for (bool net : {false, true}) {
      const auto& v = net ? t.net_ns : t.self_ns;
      double total = net ? net_total : raw_total;
      double share = 0;
      for (int l : layers) {
        share += v[l];
      }
      double best = 0;
      std::string best_name;
      for (int l = kSetupWorkload; l < kLayerCount; ++l) {
        bool setup = l == kSetupWorkload;
        int first = setup ? kSetupTopology : l;
        if (std::find(layers.begin(), layers.end(), first) != layers.end()) {
          continue;
        }
        double other = setup ? Sum(v, kSetupTopology, kSetupWorkload) : v[l];
        if (other > best) {
          best = other;
          best_name = setup ? "setup" : LayerName(l);
        }
      }
      line += Format(net ? "; net %.1f%% vs %.1f%% " : " raw %.1f%% vs %.1f%% ",
                     100 * share / total, 100 * best / total) +
              "(" + best_name + ")";
    }
    lines_.push_back(line);
  };
  if (workload_ == "fig_churn") {
    why("policy.newidle_balance + trace.hash.considered",
        {kPolicyNewidleBalance, kHashFirst + 2});
  } else if (workload_ == "nas_spin") {
    why("engine.residual", {kRun});
  } else if (workload_ == "fleet_grid") {
    why("setup", {kSetupTopology, kSetupSimulator, kSetupWorkload});
  }
}

void Report::Print() const {
  for (const std::string& line : lines_) {
    std::printf("%s\n", line.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (failed_ == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(scenarios_) +
                     ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace simbench
