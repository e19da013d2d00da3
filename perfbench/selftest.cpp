// Self-tests for the benchmark's own metric arithmetic, on cases small
// enough to compute by hand.  Exit status 0 when every check holds.
//
//   .bench_build/cmake/perfbench_selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void expect_near(const std::string& what, double got, double want) {
  if (std::abs(got - want) > 1e-12 * std::max(1.0, std::abs(want))) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what.c_str(), got, want);
    ++g_failures;
  }
}

void expect(const std::string& what, bool ok) {
  if (!ok) {
    std::printf("FAIL %s\n", what.c_str());
    ++g_failures;
  }
}

// Two links (capacity 10 and 6 pkt/s) and three flows:
//   flow 0, weight 1, link 0
//   flow 1, weight 1, links 0 and 1
//   flow 2, weight 2, link 1
// Link 1 saturates first at 6 / (1 + 2) = 2 per unit weight, so flows 1
// and 2 get 2 and 4; flow 0 takes the rest of link 0, 10 - 2 = 8.
perfbench::FlowModel three_flows() {
  perfbench::FlowModel m;
  m.ids = {1, 2, 3};
  m.weights = {1.0, 1.0, 2.0};
  m.windows = {{}, {}, {{corelite::sim::SimTime::seconds(0), corelite::sim::SimTime::seconds(5)}}};
  m.links = {{0}, {0, 1}, {1}};
  m.capacity = {10.0, 6.0};
  m.bottleneck = {true, true};
  return m;
}

void oracle_cases() {
  corelite::scenario::ScenarioSpec spec;
  spec.generated.emplace();  // oracle_rates() water-fills any generated model
  const perfbench::FlowModel m = three_flows();

  const auto at1 = perfbench::oracle_rates(spec, m, 1.0);
  expect_near("oracle flow 0", at1[0], 8.0);
  expect_near("oracle flow 1", at1[1], 2.0);
  expect_near("oracle flow 2", at1[2], 4.0);
  // Flow 2 has left: link 0 binds, 10 / 2 = 5 each for flows 0 and 1.
  const auto at7 = perfbench::oracle_rates(spec, m, 7.0);
  expect_near("oracle flow 0 after leave", at7[0], 5.0);
  expect_near("oracle flow 1 after leave", at7[1], 5.0);
  expect_near("oracle flow 2 after leave", at7[2], 0.0);

  // Measured 6 and 14 (errors 0.25, 0.75) for flow 0, 3 for flow 1
  // (0.5), exactly 4 for flow 2 (0): per-flow means 0.5, 0.5, 0.
  perfbench::OracleErr err;
  err.add(0, 6.0, at1[0]);
  err.add(0, 14.0, at1[0]);
  err.add(1, 3.0, at1[1]);
  err.add(2, 4.0, at1[2]);
  err.add(2, 9.0, 0.0);  // no oracle rate: carries no information
  expect("oracle_err flow count", err.flows() == 3);
  expect_near("oracle_err mean", err.mean(), 1.0 / 3.0);
  expect_near("oracle_err worst", err.worst(), 0.5);
  expect_near("oracle_err empty", perfbench::OracleErr{}.mean(), 0.0);
}

void runner_cases() {
  // Worker 0 runs [0, 100] and [100, 300] ms, worker 1 runs [0, 250] ms;
  // the sweep takes 300 ms on 2 workers: busy (100 + 200 + 250) / 600.
  const std::vector<perfbench::RunSpan> runs = {
      {0.0, 100.0, 0}, {100.0, 200.0, 0}, {0.0, 250.0, 1}};
  expect_near("busy_frac", perfbench::busy_frac(runs, 2, 300.0), 550.0 / 600.0);
  // Worker 1 idles from 250 ms until the sweep ends at 300 ms.
  expect_near("tail_s", perfbench::tail_s(runs), 0.05);
  expect_near("tail_s one worker", perfbench::tail_s({{0.0, 10.0, 0}}), 0.0);
  expect_near("busy_frac no wall", perfbench::busy_frac(runs, 2, 0.0), 0.0);
}

void failure_cases() {
  perfbench::FailureCounter fc;
  perfbench::RunCheck ok;
  ok.seed = 1;
  ok.digest = 0xA;
  expect("first run passes", !fc.record(ok));
  expect("repeat with same digest passes", !fc.record(ok));
  perfbench::RunCheck other = ok;
  other.digest = 0xB;
  expect("digest mismatch fails", fc.record(other).has_value());
  perfbench::RunCheck lost = ok;
  lost.seed = 2;
  lost.unrouteable = 3;
  expect("unrouteable fails", fc.record(lost).has_value());
  perfbench::RunCheck stateful = ok;
  stateful.seed = 3;
  stateful.core_stateless = false;
  stateful.core_flow_state = 5;
  expect("stateful core state passes", !fc.record(stateful));
  perfbench::RunCheck leaky = stateful;
  leaky.seed = 4;
  leaky.core_stateless = true;
  expect("core state under a stateless mechanism fails", fc.record(leaky).has_value());
  perfbench::RunCheck crashed;
  crashed.seed = 5;
  crashed.completed = false;
  expect("incomplete run fails", fc.record(crashed).has_value());
  fc.record_rejected();
  expect("attempted", fc.attempted() == 8);
  expect("failed", fc.failed() == 5);
  expect_near("failed share", fc.failed_share(), 5.0 / 8.0);
  expect_near("failed share of nothing", perfbench::FailureCounter{}.failed_share(), 0.0);
}

void floor_cases() {
  const perfbench::FlowModel m = three_flows();
  // 0.5 pkt/s floors: link 0 carries 1.0 of 10, link 1 carries 1.0 of 6.
  expect("floors fit", !perfbench::floors_overflow(m.capacity, m.links, {0.5, 0.5, 0.5}));
  // 4 pkt/s floors: link 1 carries 8 > 6.
  const auto over = perfbench::floors_overflow(m.capacity, m.links, {4.0, 4.0, 4.0});
  expect("floors overflow link 1", over.has_value() && *over == 1);
  // Exactly at capacity is feasible.
  expect("floors at capacity fit", !perfbench::floors_overflow({1.0}, {{0}, {0}}, {0.5, 0.5}));
}

void median_cases() {
  expect_near("median odd", perfbench::median({3.0, 1.0, 2.0}), 2.0);
  expect_near("median even", perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  expect_near("median empty", perfbench::median({}), 0.0);
  expect_near("middle mean of 3 keeps all", perfbench::middle_mean({3.0, 1.0, 2.0}), 2.0);
  // n = 8: the lowest two and highest two go, (3 + 4 + 5 + 6) / 4.
  expect_near("middle mean of 8",
              perfbench::middle_mean({8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0}), 4.5);
  expect_near("middle mean ignores an outlier", perfbench::middle_mean({1.0, 1.0, 1.0, 100.0}),
              1.0);
  expect_near("middle mean empty", perfbench::middle_mean({}), 0.0);
}

}  // namespace

int main() {
  oracle_cases();
  runner_cases();
  failure_cases();
  floor_cases();
  median_cases();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
