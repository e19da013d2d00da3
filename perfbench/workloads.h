// The benchmark's workloads, built from explicit parameters held here
// (never from the library's scenario-name defaults, so a change to those
// defaults cannot silently change what is measured), and the fidelity
// analysis that scores a finished run against the water-filling oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/flow.h"
#include "net/network.h"
#include "runner/sweep.h"
#include "scenario/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// A sweep workload times one SweepRunner grid; every other workload
  /// times single run_paper_scenario() calls.
  bool sweep = false;
  /// Single runs cycle through this many seeds derived from --seed;
  /// every figure is a median over them.
  std::size_t sub_seeds = 1;
  /// Oracle windows: a flow is scored in [t, t + window_s) only if it
  /// has been active since t - settle_s (it had time to converge).
  double settle_s = 0.0;
  double window_s = 1.0;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The spec of one single-run workload for one seed.
[[nodiscard]] corelite::scenario::ScenarioSpec single_spec(const Workload& w, std::uint64_t seed);
/// The grid of a sweep workload; `seed` is its base seed.
[[nodiscard]] corelite::runner::SweepGrid sweep_grid(const Workload& w, std::uint64_t seed);

/// True for mechanisms that promise no per-flow state in the core.
[[nodiscard]] bool core_stateless(corelite::scenario::Mechanism m);

/// What the oracle and the accounting know about a run's flows: dense
/// link indices per flow, link capacities in packets per second and
/// which links are designated bottlenecks.
struct FlowModel {
  std::vector<corelite::net::FlowId> ids;
  std::vector<double> weights;
  std::vector<std::vector<corelite::net::ActiveInterval>> windows;  ///< empty = always on
  std::vector<std::vector<std::uint32_t>> links;
  std::vector<double> capacity;
  std::vector<bool> bottleneck;

  [[nodiscard]] bool active_at(std::size_t f, double t) const;
};

/// The paper chain: flows cross the three congested core links.
[[nodiscard]] FlowModel paper_model(const corelite::scenario::ScenarioSpec& spec);

/// A generated topology: routes read through Network::path() from the
/// wired network (call from the instrument hook), every traversed link
/// indexed, the hook's bottleneck links marked.
[[nodiscard]] FlowModel generated_model(const corelite::scenario::ScenarioSpec& spec,
                                        corelite::net::Network& network,
                                        const std::vector<corelite::net::Link*>& bottlenecks);

/// Per-flow rate floor (pkt/s) of the spec's source agents.
[[nodiscard]] double floor_pps(const corelite::scenario::ScenarioSpec& spec);

/// Oracle rates (pkt/s) for the flows active at time t, one per model
/// flow (0 when inactive): ideal_rates_at() on the paper chain,
/// sim::fluid::water_fill() over the model's routes otherwise.
[[nodiscard]] std::vector<double> oracle_rates(const corelite::scenario::ScenarioSpec& spec,
                                               const FlowModel& model, double t);

/// Simulated-side metrics of one run.
struct Fidelity {
  double oracle_err = 0.0;
  double oracle_err_worst = 0.0;
  double goodput_util = 0.0;
  double loss_pct = 0.0;       ///< data drops / data packets sent, in %
  double delivered_pct = 0.0;  ///< data packets delivered / sent, in %
  std::size_t scored_flows = 0;
};

[[nodiscard]] Fidelity analyse_run(const Workload& w, const corelite::scenario::ScenarioSpec& spec,
                                   const corelite::scenario::ScenarioResult& result,
                                   const FlowModel& model);

/// Simulated-side metrics of a whole sweep, from the runner's results:
/// oracle error of each flow's steady-state rate (mean allotted rate
/// over [T/2, T]) on the runs whose population is fixed over that half
/// (per-run mean and worst flow, averaged over those runs), that rate's
/// load on the three bottlenecks over their capacity, and drops and
/// deliveries over (delivered + drops).
[[nodiscard]] Fidelity analyse_sweep(const std::vector<corelite::runner::RunResult>& results);

}  // namespace perfbench
