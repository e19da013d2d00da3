#include "workloads.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "metrics.h"
#include "scenario/flow_gen.h"
#include "scenario/paper_topology.h"
#include "scenario/topology_gen.h"
#include "sim/fluid/allocator.h"

namespace perfbench {

namespace cs = corelite::scenario;
namespace sim = corelite::sim;
namespace net = corelite::net;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// gen-isp-csfq-10k: isp32 (topology seed 7) with 40 Mbps core links, so
// even a link crossed by all 10k flows carries their 0.5 pkt/s floors
// (5000 pkt/s at 1 KB); access links stay 10x fatter than the core.
cs::ScenarioSpec isp_csfq_10k(std::uint64_t seed) {
  cs::TopologyGenConfig t;
  t.core_rate = sim::Rate::mbps(40);
  t.access_rate = sim::Rate::mbps(400);
  t.link_delay = sim::TimeDelta::millis(10);
  t.queue_capacity_packets = 40;
  t.packet_size = sim::DataSize::kilobytes(1);

  cs::GeneratedWorkload wl;
  wl.topology = cs::make_isp(32, 7, t);
  wl.flows.num_flows = 10000;
  wl.flows.weight_cycle = {1.0, 2.0, 3.0};
  wl.flows.mean_arrival_gap_sec = 0.02;
  wl.flows.arrival_span_frac = 0.8;
  wl.flows.pareto_alpha = 1.3;
  wl.flows.on_min_sec = 5.0;
  wl.flows.on_max_sec = 200.0;
  wl.flows.churn = true;
  wl.flows.mean_off_sec = 5.0;
  wl.flows.max_windows = 4;
  wl.flows.record_series = true;

  cs::ScenarioSpec s;
  s.mechanism = cs::Mechanism::Csfq;
  s.num_flows = wl.flows.num_flows;
  s.duration = sim::SimTime::seconds(10);
  s.seed = seed;
  s.generated = std::move(wl);
  return s;
}

// gen-pl-fluid-steady: pl8 at 10 Mbps core with 500 churn-free flows
// arriving in the first 5% of a 300 s run, fluid fast-forward on.
// Weights are all 1: with the {1, 2, 3} cycle the per-population
// oracle error varies about 25% from seed to seed (0.08-0.18), too
// much for 10 populations to pin down; equal weights vary about 5%.
// Weighted fairness is measured by paper-fig3-corelite and sweep-mixed.
cs::ScenarioSpec pl_fluid_steady(std::uint64_t seed) {
  cs::TopologyGenConfig t;
  t.core_rate = sim::Rate::mbps(10);
  t.access_rate = sim::Rate::mbps(100);
  t.link_delay = sim::TimeDelta::millis(10);
  t.queue_capacity_packets = 40;
  t.packet_size = sim::DataSize::kilobytes(1);

  cs::GeneratedWorkload wl;
  wl.topology = cs::make_parking_lot(8, t);
  wl.flows.num_flows = 500;
  wl.flows.weight_cycle = {1.0};
  wl.flows.mean_arrival_gap_sec = 0.02;
  wl.flows.arrival_span_frac = 0.05;
  wl.flows.pareto_alpha = 1.3;
  wl.flows.on_min_sec = 5.0;
  wl.flows.on_max_sec = 200.0;
  wl.flows.churn = false;
  wl.flows.mean_off_sec = 5.0;
  wl.flows.max_windows = 4;
  wl.flows.record_series = true;

  cs::ScenarioSpec s;
  s.mechanism = cs::Mechanism::Corelite;
  s.num_flows = wl.flows.num_flows;
  s.duration = sim::SimTime::seconds(300);
  s.seed = seed;
  s.fluid.enabled = true;
  s.generated = std::move(wl);
  return s;
}

/// Times at which some flow starts or stops: the active set, and so
/// the oracle, can only change there.
std::vector<double> change_times(const FlowModel& m) {
  std::vector<double> t;
  for (const auto& ws : m.windows) {
    for (const auto& iv : ws) {
      t.push_back(iv.start.sec());
      t.push_back(iv.stop.sec());
    }
  }
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

bool changes_within(const std::vector<double>& times, double a, double b) {
  const auto it = std::upper_bound(times.begin(), times.end(), a);
  return it != times.end() && *it < b;
}

/// Flow f is on for the whole of [a, b).
bool active_throughout(const FlowModel& m, std::size_t f, double a, double b) {
  if (m.windows[f].empty()) return true;
  for (const auto& iv : m.windows[f]) {
    if (iv.start.sec() <= a && iv.stop.sec() >= b) return true;
  }
  return false;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Sub-seed counts follow each workload's seed-to-seed variance: the
      // CPU time of one fluid population varies about 3x with when it
      // certifies, so its speed is averaged over 20 populations.
      {"paper-fig3-corelite", false, 3, 100.0, 10.0},
      {"gen-isp-csfq-10k", false, 4, 3.0, 1.0},
      {"sweep-mixed", true, 1, 0.0, 0.0},
      {"gen-pl-fluid-steady", false, 20, 30.0, 10.0},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

cs::ScenarioSpec single_spec(const Workload& w, std::uint64_t seed) {
  if (w.name == "paper-fig3-corelite") {
    cs::ScenarioSpec s = cs::fig3_network_dynamics(cs::Mechanism::Corelite);
    s.seed = seed;
    return s;
  }
  if (w.name == "gen-isp-csfq-10k") return isp_csfq_10k(seed);
  if (w.name == "gen-pl-fluid-steady") return pl_fluid_steady(seed);
  throw std::invalid_argument{"not a single-run workload: " + w.name};
}

corelite::runner::SweepGrid sweep_grid(const Workload& w, std::uint64_t seed) {
  if (w.name != "sweep-mixed") throw std::invalid_argument{"not a sweep workload: " + w.name};
  corelite::runner::SweepGrid g;
  g.scenarios = {"fig5", "fig7", "fig9"};
  g.mechanisms = {cs::Mechanism::Corelite, cs::Mechanism::Csfq, cs::Mechanism::Wfq,
                  cs::Mechanism::Fred,     cs::Mechanism::DropTail, cs::Mechanism::Choke};
  // 8 repeats: the worst-flow oracle error of one run is noisy, and its
  // mean over 4 repeats still varied about 10% from seed to seed.
  g.repeats = 8;
  g.base_seed = seed;
  return g;
}

bool core_stateless(cs::Mechanism m) {
  return m != cs::Mechanism::Wfq && m != cs::Mechanism::Fred && m != cs::Mechanism::Sfq;
}

bool FlowModel::active_at(std::size_t f, double t) const {
  if (windows[f].empty()) return true;
  for (const auto& iv : windows[f]) {
    if (t >= iv.start.sec() && t < iv.stop.sec()) return true;
  }
  return false;
}

FlowModel paper_model(const cs::ScenarioSpec& spec) {
  FlowModel m;
  const double cap = spec.topology.link_rate.pps(spec.topology.packet_size);
  m.capacity.assign(cs::PaperTopology::kCongestedLinks, cap);
  m.bottleneck.assign(cs::PaperTopology::kCongestedLinks, true);
  for (std::size_t i = 0; i < spec.num_flows; ++i) {
    const auto id = static_cast<net::FlowId>(i + 1);
    m.ids.push_back(id);
    m.weights.push_back(spec.weights.at(i));
    m.windows.push_back(i < spec.activity.size() ? spec.activity[i]
                                                 : std::vector<net::ActiveInterval>{});
    std::vector<std::uint32_t> links;
    for (std::size_t l : cs::PaperTopology::congested_links(id)) {
      links.push_back(static_cast<std::uint32_t>(l));
    }
    m.links.push_back(std::move(links));
  }
  return m;
}

FlowModel generated_model(const cs::ScenarioSpec& spec, net::Network& network,
                          const std::vector<net::Link*>& bottlenecks) {
  const cs::GeneratedWorkload& wl = spec.generated.value();
  // The runner names each router's attach nodes S<router> / D<router>.
  std::unordered_map<std::string, net::NodeId> by_name;
  for (std::size_t n = 0; n < network.node_count(); ++n) {
    const auto id = static_cast<net::NodeId>(n);
    by_name.emplace(network.node(id).name(), id);
  }
  const auto node_named = [&](const std::string& name) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) throw std::runtime_error{"generated network has no node " + name};
    return it->second;
  };

  FlowModel m;
  std::unordered_map<const net::Link*, std::uint32_t> index;
  const auto flows = cs::generate_flows(wl.topology, wl.flows, spec.duration.sec(), spec.seed);
  for (const cs::GenFlow& f : flows) {
    m.ids.push_back(f.id);
    m.weights.push_back(f.weight);
    m.windows.push_back(f.windows);
    const auto hops = network.path(node_named("S" + std::to_string(f.src_router)),
                                   node_named("D" + std::to_string(f.dst_router)));
    if (hops.size() < 2) throw std::runtime_error{"generated flow has no route"};
    std::vector<std::uint32_t> links;
    for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
      const net::Link* l = network.find_link(hops[h], hops[h + 1]);
      if (l == nullptr) throw std::runtime_error{"route uses a missing link"};
      const auto [it, fresh] = index.emplace(l, static_cast<std::uint32_t>(m.capacity.size()));
      if (fresh) {
        m.capacity.push_back(l->rate().pps(wl.topology.cfg.packet_size));
        m.bottleneck.push_back(std::find(bottlenecks.begin(), bottlenecks.end(), l) !=
                               bottlenecks.end());
      }
      links.push_back(it->second);
    }
    m.links.push_back(std::move(links));
  }
  return m;
}

double floor_pps(const cs::ScenarioSpec& spec) {
  const bool corelite_edges =
      spec.mechanism == cs::Mechanism::Corelite || spec.mechanism == cs::Mechanism::EcnBit;
  return corelite_edges ? spec.corelite.adapt.min_rate_pps : spec.csfq.adapt.min_rate_pps;
}

std::vector<double> oracle_rates(const cs::ScenarioSpec& spec, const FlowModel& m, double t) {
  std::vector<double> out(m.ids.size(), 0.0);
  if (!spec.generated.has_value()) {
    const auto ideal = cs::ideal_rates_at(spec, sim::SimTime::seconds(t));
    for (std::size_t f = 0; f < m.ids.size(); ++f) {
      const auto it = ideal.find(m.ids[f]);
      if (it != ideal.end()) out[f] = it->second;
    }
    return out;
  }
  std::vector<sim::fluid::AllocFlow> flows;
  std::vector<std::size_t> of;
  for (std::size_t f = 0; f < m.ids.size(); ++f) {
    if (!m.active_at(f, t)) continue;
    flows.push_back({m.weights[f], kInf, m.links[f]});
    of.push_back(f);
  }
  const auto rates = sim::fluid::water_fill(m.capacity, flows);
  for (std::size_t i = 0; i < of.size(); ++i) out[of[i]] = rates[i];
  return out;
}

Fidelity analyse_run(const Workload& w, const cs::ScenarioSpec& spec,
                     const cs::ScenarioResult& r, const FlowModel& m) {
  const double T = spec.duration.sec();
  // A churned population never holds still, so there a window counts as
  // converged per flow (the flow has been on for settle_s); elsewhere
  // the whole active set must also have been fixed that long.
  const bool churned = spec.generated.has_value() && spec.generated->flows.churn;
  const std::vector<double> changes = change_times(m);

  OracleErr err;
  for (double t = w.settle_s; t + w.window_s <= T + 1e-9; t += w.window_s) {
    const double a = t - w.settle_s;
    const double b = t + w.window_s;
    if (!churned && changes_within(changes, a, b)) continue;
    const std::vector<double> oracle = oracle_rates(spec, m, t + 0.5 * w.window_s);
    for (std::size_t f = 0; f < m.ids.size(); ++f) {
      if (!active_throughout(m, f, a, b)) continue;
      const auto& cum = r.tracker.series(m.ids[f]).cumulative_delivered;
      err.add(f, (cum.value_at(b) - cum.value_at(t)) / w.window_s, oracle[f]);
    }
  }

  Fidelity out;
  out.oracle_err = err.mean();
  out.oracle_err_worst = err.worst();
  out.scored_flows = err.flows();

  double bneck_pkts = 0.0;
  double sent = 0.0;
  double delivered = 0.0;
  for (std::size_t f = 0; f < m.ids.size(); ++f) {
    const auto& s = r.tracker.series(m.ids[f]);
    std::size_t crossed = 0;
    for (std::uint32_t l : m.links[f]) crossed += m.bottleneck[l] ? 1 : 0;
    bneck_pkts += static_cast<double>(s.delivered) * static_cast<double>(crossed);
    sent += static_cast<double>(s.sent);
    delivered += static_cast<double>(s.delivered);
  }
  double bneck_cap = 0.0;
  for (std::size_t l = 0; l < m.capacity.size(); ++l) {
    if (m.bottleneck[l]) bneck_cap += m.capacity[l];
  }
  out.goodput_util = bneck_cap > 0.0 ? bneck_pkts / (bneck_cap * T) : 0.0;
  out.loss_pct = sent > 0.0 ? 100.0 * static_cast<double>(r.total_data_drops) / sent : 0.0;
  out.delivered_pct = sent > 0.0 ? 100.0 * delivered / sent : 0.0;
  return out;
}

Fidelity analyse_sweep(const std::vector<corelite::runner::RunResult>& results) {
  Fidelity out;
  std::size_t scored = 0;
  double util_sum = 0.0;
  double drops = 0.0;
  double delivered = 0.0;
  std::size_t runs = 0;
  for (const auto& r : results) {
    const auto spec = corelite::runner::build_spec(r.desc);
    if (!spec.has_value() || !r.ok) continue;
    const FlowModel m = paper_model(*spec);
    const double T = spec->duration.sec();
    const double w0 = T / 2.0;
    // Like the single-run workloads' sub-seeds, each run is scored on
    // its own and the run means and worst flows are averaged.
    if (!changes_within(change_times(m), w0, T)) {
      OracleErr err;
      const auto oracle = oracle_rates(*spec, m, w0);
      for (std::size_t f = 0; f < m.ids.size(); ++f) err.add(f, r.avg_rate_pps.at(f), oracle[f]);
      out.oracle_err += err.mean();
      out.oracle_err_worst += err.worst();
      out.scored_flows += err.flows();
      ++scored;
    }
    double load = 0.0;
    for (std::size_t f = 0; f < m.ids.size(); ++f) {
      load += r.avg_rate_pps.at(f) * static_cast<double>(m.links[f].size());
    }
    double cap = 0.0;
    for (double c : m.capacity) cap += c;
    util_sum += load / cap;
    drops += static_cast<double>(r.total_drops);
    delivered += static_cast<double>(r.delivered);
    ++runs;
  }
  if (scored > 0) {
    out.oracle_err /= static_cast<double>(scored);
    out.oracle_err_worst /= static_cast<double>(scored);
  }
  out.goodput_util = runs > 0 ? util_sum / static_cast<double>(runs) : 0.0;
  const double sent = drops + delivered;
  out.loss_pct = sent > 0.0 ? 100.0 * drops / sent : 0.0;
  out.delivered_pct = sent > 0.0 ? 100.0 * delivered / sent : 0.0;
  return out;
}

}  // namespace perfbench
