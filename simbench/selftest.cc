// The benchmark's own tests, run by `run.py --selftest`:
//   1. the timing decorators are pure forwarders under every registered
//      policy: traced, untraced and RunScenario runs agree on the digest and
//      on every pinned outcome, and every hash callback was timed once;
//   2. the ledger is closed: per-layer self times plus the engine residual
//      sum exactly to the traced run time, and over all phases to the
//      traced host time;
//   3. the outcome check rejects a perturbed expected value.
#include <cstdio>
#include <string>
#include <vector>

#include "simbench/ledger.h"
#include "simbench/report.h"
#include "simbench/runner.h"
#include "src/modsched/policy_registry.h"
#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/scenario.h"

namespace simbench {

using wcores::Scenario;

namespace {

class Tally {
 public:
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      ++failures_;
      std::printf("FAIL %s\n", what.c_str());
    }
    ++checks_;
  }
  int failures() const { return failures_; }
  int checks() const { return checks_; }

 private:
  int failures_ = 0;
  int checks_ = 0;
};

// Small scenarios covering every policy, both feature sets, flat and NUMA
// machines, and the stream fan-out.
std::vector<Scenario> CoverageScenarios() {
  wcores::GridSpec spec;
  spec.topos = {Scenario::Topo::kFlat2x4, Scenario::Topo::kBulldozer8x8};
  spec.feature_sets = {"stock", "fixed"};
  spec.policies = wcores::SchedPolicyNames();
  spec.mix_threads = {16};
  std::vector<Scenario> out = wcores::ExpandGrid(spec);
  for (size_t i = 0; i < out.size(); i += 2) {
    out[i].stream = true;
  }
  for (const std::string& policy : wcores::SchedPolicyNames()) {
    for (Scenario s : wcores::FigureScenarios(0.1)) {
      s.policy = policy;
      s.name += "/" + policy;
      out.push_back(s);
    }
  }
  return out;
}

void TestDecoratorsAndLedger(Tally* t) {
  const SpanCost cost = CalibrateSpanCost();
  for (const Scenario& s : CoverageScenarios()) {
    Outcome expected = OutcomeFromResult(wcores::RunScenario(s));
    Outcome untraced = RunOne(s, nullptr);
    Ledger ledger;
    Outcome traced = RunOne(s, &ledger);
    std::string why;
    t->Check(untraced.trace_hash == expected.trace_hash, s.name + ": untraced hash");
    t->Check(traced.trace_hash == expected.trace_hash, s.name + ": traced hash");
    t->Check(SamePinned(expected, traced, &why), s.name + ": traced outcome " + why);
    t->Check(traced.sim_events == expected.sim_events, s.name + ": traced event count");

    // Every hash callback passed through the decorator exactly once, and the
    // stream saw the same callbacks plus its one end-of-run reduction.
    uint64_t hash_calls = 0;
    for (int k = 0; k < 9; ++k) {
      hash_calls += ledger.calls(kHashFirst + k);
    }
    t->Check(hash_calls == traced.trace_events, s.name + ": hash callbacks timed");
    t->Check(ledger.calls(kStream) == (s.stream ? hash_calls + 1 : 0),
             s.name + ": stream callbacks");
    t->Check(ledger.calls(kPolicyPickNext) > 0, s.name + ": policy hooks timed");
    bool o1 = s.policy == "o1";
    t->Check((ledger.calls(kPolicyRqEvent) > 0) == o1, s.name + ": rq events forwarded iff o1");

    // Closure of the ledger.
    t->Check(ledger.depth() == 0, s.name + ": all spans closed");
    t->Check(ledger.self_ns(kRun) + ledger.covered_ns(kRun) == ledger.inclusive_ns(kRun),
             s.name + ": run-phase self times sum to the run span");
    t->Check(ledger.inclusive_ns(kRun) == traced.phase_ns[kRun],
             s.name + ": run span is the reported run time");
    LayerTotals totals = ReduceLedgers({ledger}, cost);
    double self_sum = 0;
    for (int l = 0; l < kLayerCount; ++l) {
      self_sum += totals.self_ns[l];
    }
    double phase_sum = 0;
    for (int64_t ns : traced.phase_ns) {
      phase_sum += static_cast<double>(ns);
    }
    t->Check(self_sum == phase_sum, s.name + ": layer self times sum to the traced host time");
  }
}

void TestOutcomeCheck(Tally* t, const std::string& outcomes_path) {
  OutcomeTable table;
  std::string error;
  t->Check(LoadOutcomes(outcomes_path, &table, &error), "load outcome table: " + error);
  std::vector<Scenario> scenarios;
  WorkloadScenarios("fig_churn", kDefaultSeed, &scenarios);
  const Scenario& s = scenarios.front();
  auto it = table.find(OutcomeKey("fig_churn", s.name));
  t->Check(it != table.end(), s.name + ": pinned");
  if (it == table.end()) {
    return;
  }
  Outcome actual = RunOne(s, nullptr);
  std::string why;
  t->Check(SamePinned(it->second, actual, &why), s.name + ": matches its pin " + why);
  t->Check(!it->second.metrics.empty(), s.name + ": pin carries completion metrics");

  // Each pinned field, perturbed alone, must fail the check.
  std::vector<Outcome> perturbed(5, it->second);
  perturbed[0].trace_events += 1;
  perturbed[1].context_switches += 1;
  perturbed[2].migrations += 1;
  perturbed[3].virtual_s *= 1 + 1e-15;
  for (auto& [name, value] : perturbed[4].metrics) {
    value += 1e-9;
    break;
  }
  for (size_t i = 0; i < perturbed.size(); ++i) {
    t->Check(!SamePinned(perturbed[i], actual, &why),
             s.name + ": perturbed field " + std::to_string(i) + " is caught");
  }
}

}  // namespace

int SelfTest(const std::string& outcomes_path) {
  Tally t;
  TestDecoratorsAndLedger(&t);
  TestOutcomeCheck(&t, outcomes_path);
  std::printf("selftest: %d checks, %d failed\n", t.checks(), t.failures());
  return t.failures() == 0 ? 0 : 1;
}

}  // namespace simbench
