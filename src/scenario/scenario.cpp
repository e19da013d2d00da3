#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "csfq/core.h"
#include "csfq/edge_router.h"
#include "net/network.h"
#include "qos/core_router.h"
#include "qos/ecn.h"
#include "qos/edge_router.h"
#include "sim/fluid/controller.h"
#include "sim/fluid/warp.h"
#include "sim/hotpath.h"
#include "sim/parallel/lp_partition.h"
#include "sim/parallel/lp_runtime.h"
#include "sim/simulator.h"
#include "stats/fairness.h"

namespace corelite::scenario {

std::string mechanism_name(Mechanism m) {
  switch (m) {
    case Mechanism::Corelite: return "corelite";
    case Mechanism::Csfq: return "csfq";
    case Mechanism::DropTail: return "droptail";
    case Mechanism::Red: return "red";
    case Mechanism::Fred: return "fred";
    case Mechanism::Wfq: return "wfq";
    case Mechanism::EcnBit: return "ecnbit";
    case Mechanism::Choke: return "choke";
    case Mechanism::Sfq: return "sfq";
  }
  return "unknown";
}

std::optional<Mechanism> mechanism_from_name(const std::string& name) {
  for (Mechanism m : {Mechanism::Corelite, Mechanism::Csfq, Mechanism::DropTail, Mechanism::Red,
                      Mechanism::Fred, Mechanism::Wfq, Mechanism::EcnBit, Mechanism::Choke,
                      Mechanism::Sfq}) {
    if (mechanism_name(m) == name) return m;
  }
  return std::nullopt;
}

namespace {

/// Fixed topology seed for named "gen-isp*" scenarios: the name must
/// denote one stable topology instance (only the flow population varies
/// with the run seed), or sweep cells would not be comparable.
constexpr std::uint64_t kIspTopologySeed = 7;

/// Strictly positive decimal integer, nothing else; nullopt on junk,
/// empty, leading-zero-only or oversized input.
std::optional<std::size_t> parse_positive(const std::string& s) {
  if (s.empty() || s.size() > 9) return std::nullopt;
  std::size_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  if (v == 0) return std::nullopt;
  return v;
}

std::optional<ScenarioSpec> generated_scenario_from_name(const std::string& name, Mechanism m) {
  if (name.rfind("gen-", 0) != 0) return std::nullopt;
  std::string rest = name.substr(4);
  // "-steady" variant: no churn, arrivals compressed into the first 5%
  // of the run — one long converged phase, the fluid fast-forward
  // engine's best case (and the workload the >=3x speedup gate uses).
  bool steady = false;
  constexpr std::string_view kSteady = "-steady";
  if (rest.size() > kSteady.size() &&
      rest.compare(rest.size() - kSteady.size(), kSteady.size(), kSteady) == 0) {
    steady = true;
    rest.resize(rest.size() - kSteady.size());
  }
  const auto dash = rest.find('-');
  if (dash == std::string::npos) return std::nullopt;
  const std::string topo_part = rest.substr(0, dash);
  const auto flows = parse_positive(rest.substr(dash + 1));
  if (!flows.has_value() || *flows > 2'000'000) return std::nullopt;

  GeneratedTopology topo;
  if (topo_part.rfind("pl", 0) == 0) {
    const auto stages = parse_positive(topo_part.substr(2));
    if (!stages.has_value() || *stages > 64) return std::nullopt;
    topo = make_parking_lot(*stages);
  } else if (topo_part.rfind("ft", 0) == 0) {
    const auto k = parse_positive(topo_part.substr(2));
    if (!k.has_value() || *k < 2 || *k > 16 || *k % 2 != 0) return std::nullopt;
    topo = make_fat_tree(*k);
  } else if (topo_part.rfind("isp", 0) == 0) {
    const auto routers = parse_positive(topo_part.substr(3));
    if (!routers.has_value() || *routers < 2 || *routers > 512) return std::nullopt;
    topo = make_isp(*routers, kIspTopologySeed);
  } else {
    return std::nullopt;
  }

  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = *flows;
  s.duration = sim::SimTime::seconds(80);
  GeneratedWorkload wl;
  wl.topology = std::move(topo);
  wl.flows.num_flows = *flows;
  if (steady) {
    wl.flows.churn = false;
    wl.flows.arrival_span_frac = 0.05;
  }
  // Per-flow series cost O(flows x samples) memory: keep them up to
  // sweep-sized populations, counters-only at bench scale.
  wl.flows.record_series = *flows <= 20000;
  s.generated = std::move(wl);
  return s;
}

}  // namespace

std::optional<ScenarioSpec> scenario_by_name(const std::string& name, Mechanism m) {
  if (name == "fig3") return fig3_network_dynamics(m);
  if (name == "fig5") return fig5_simultaneous_start(m);
  if (name == "fig7") return fig7_staggered_start(m);
  if (name == "fig9") return fig9_churn(m);
  return generated_scenario_from_name(name, m);
}

namespace {

// Records the virtual time of every data drop on a link.
struct DropRecorder final : net::LinkObserver {
  net::Link* link = nullptr;
  std::vector<double>* sink = nullptr;
  ~DropRecorder() override {
    if (link != nullptr) link->remove_observer(this);
  }
  void on_drop(const net::Packet& p, sim::SimTime now) override {
    if (p.is_data()) sink->push_back(now.sec());
  }
  void on_link_destroyed(net::Link& /*l*/) override { link = nullptr; }
};

/// A wired scenario network, as a topology builder hands it to the runner.
struct WiredTopology {
  std::vector<net::NodeId> routers;  ///< core machinery runs on each
  std::vector<net::NodeId> ingress;  ///< attach nodes hosting one edge router each
  std::vector<net::NodeId> egress;   ///< attach nodes hosting one delivery sink each
  std::vector<net::FlowSpec> flows;  ///< id order, ingress/egress set
  /// Drop times, queue series, audit gauges, q_avg means and the
  /// instrument hook all follow this order.
  std::vector<net::Link*> bottlenecks;
  /// Per-flow constraint sets, filled only when fluid or audit runs:
  /// link capacities (pkt/s) and, per flow in `flows` order, the
  /// indices of the links the flow is constrained by.
  std::vector<double> link_caps;
  std::vector<std::vector<std::uint32_t>> flow_links;
  bool record_series = true;
};

/// One topology family.  The router graph comes without a network
/// because the LP partition must pin every router before the first node
/// exists; `wire` then builds routers, attach nodes and links (router i
/// on LP (*lp_of_router)[i], everything on LP 0 when null), computes the
/// routes and describes the result, constraint sets included on request.
struct TopologyBuilder {
  sim::par::LpGraph lp_graph;
  std::function<WiredTopology(net::Network&, const std::vector<std::uint32_t>* lp_of_router,
                              bool constraints)>
      wire;
};

/// `q` with the core queue discipline the spec's mechanism runs;
/// weight_of_id[f] is flow f's weight, known to WFQ cores.
PaperTopologyConfig with_discipline(const ScenarioSpec& spec, PaperTopologyConfig q,
                                    std::vector<double> weight_of_id) {
  if (spec.mechanism == Mechanism::Red) q.core_queue = CoreQueueKind::Red;
  if (spec.mechanism == Mechanism::Fred) q.core_queue = CoreQueueKind::Fred;
  if (spec.mechanism == Mechanism::Choke) q.core_queue = CoreQueueKind::Choke;
  if (spec.mechanism == Mechanism::Sfq) q.core_queue = CoreQueueKind::Sfq;
  if (spec.mechanism == Mechanism::Wfq) {
    q.core_queue = CoreQueueKind::Wfq;
    q.wfq_weight_of = [w = std::move(weight_of_id)](net::FlowId f) {
      return f < w.size() ? w[f] : 1.0;
    };
  }
  return q;
}

/// The paper's Figure-2 chain: four cores with the discipline on the
/// forward core links only, and private attach nodes for every flow.
TopologyBuilder figure2_chain(const ScenarioSpec& spec) {
  TopologyBuilder b;
  // Every flow's attach nodes follow its entry/exit core, so the three
  // inter-core links are the only candidate cut links: at most 4 LPs,
  // with the core link delay as lookahead.
  b.lp_graph.nodes = PaperTopology::kCoreCount;
  for (std::uint32_t i = 0; i + 1 < PaperTopology::kCoreCount; ++i) {
    b.lp_graph.edges.push_back({i, i + 1, spec.topology.link_delay.sec(), true});
  }
  b.wire = [&spec](net::Network& network, const std::vector<std::uint32_t>* lp_of_router,
                   bool constraints) {
    std::vector<double> weight_of_id(spec.num_flows + 1, 1.0);
    std::copy(spec.weights.begin(), spec.weights.end(), weight_of_id.begin() + 1);
    const PaperTopology chain{network, spec.num_flows,
                              with_discipline(spec, spec.topology, std::move(weight_of_id)),
                              lp_of_router};
    network.build_routes();

    WiredTopology t;
    t.routers = chain.cores();
    for (std::size_t i = 0; i < PaperTopology::kCongestedLinks; ++i) {
      t.bottlenecks.push_back(chain.congested_link(network, i));
    }
    if (constraints) t.link_caps.assign(PaperTopology::kCongestedLinks, chain.capacity_pps());
    t.flows.reserve(spec.num_flows);
    for (std::size_t i = 0; i < spec.num_flows; ++i) {
      const auto id = static_cast<net::FlowId>(i + 1);
      const FlowEndpoints& ep = chain.endpoints(id);
      t.ingress.push_back(ep.ingress);
      t.egress.push_back(ep.egress);
      net::FlowSpec fs;
      fs.id = id;
      fs.ingress = ep.ingress;
      fs.egress = ep.egress;
      fs.weight = spec.weights[i];
      if (i < spec.activity.size() && !spec.activity[i].empty()) fs.active = spec.activity[i];
      if (i < spec.min_rates.size()) fs.min_rate_pps = spec.min_rates[i];
      if (i < spec.flood_pps.size()) fs.flood_pps = spec.flood_pps[i];
      t.flows.push_back(std::move(fs));
      if (constraints) {
        std::vector<std::uint32_t>& links = t.flow_links.emplace_back();
        for (std::size_t l : PaperTopology::congested_links(id)) {
          links.push_back(static_cast<std::uint32_t>(l));
        }
      }
    }
    return t;
  };
  return b;
}

/// A generated graph: the discipline on both directions of every
/// router-router link (generated graphs have no dedicated forward
/// direction), and one source and one sink attach node per designated
/// router, so node count stays O(routers) and a 100k-flow population
/// shares O(routers) access links.  The population is a pure function
/// of (topology, config, duration, seed): sweep workers regenerate it
/// independently and still land on bit-identical digests.
TopologyBuilder generated_graph(const ScenarioSpec& spec) {
  const GeneratedWorkload& wl = *spec.generated;
  const GeneratedTopology& topo = wl.topology;
  TopologyBuilder b;
  // Cut preferentially at the designated bottlenecks; attach nodes share
  // their router's LP, so only router-router links can cross LPs.
  std::vector<bool> is_bottleneck(topo.links.size(), false);
  for (std::size_t idx : topo.bottlenecks) {
    if (idx < is_bottleneck.size()) is_bottleneck[idx] = true;
  }
  b.lp_graph.nodes = topo.routers;
  b.lp_graph.edges.reserve(topo.links.size());
  for (std::size_t i = 0; i < topo.links.size(); ++i) {
    const GenLink& l = topo.links[i];
    b.lp_graph.edges.push_back({l.a, l.b, topo.cfg.link_delay.sec(), is_bottleneck[i]});
  }
  b.wire = [&spec, &wl, &topo,
            flows = generate_flows(topo, wl.flows, spec.duration.sec(), spec.seed)](
               net::Network& network, const std::vector<std::uint32_t>* lp_of_router,
               bool constraints) mutable {
    // The generator's link knobs over the spec's discipline parameters.
    PaperTopologyConfig q = spec.topology;
    q.link_rate = topo.cfg.core_rate;
    q.link_delay = topo.cfg.link_delay;
    q.queue_capacity_packets = topo.cfg.queue_capacity_packets;
    q.packet_size = topo.cfg.packet_size;
    std::vector<double> weight_of_id(wl.flows.num_flows + 1, 1.0);
    for (const GenFlow& f : flows) weight_of_id[f.id] = f.weight;
    q = with_discipline(spec, std::move(q), std::move(weight_of_id));

    WiredTopology t;
    t.record_series = wl.flows.record_series;
    t.routers.reserve(topo.routers);
    for (std::size_t r = 0; r < topo.routers; ++r) {
      t.routers.push_back(network.add_node("R" + std::to_string(r),
                                           lp_of_router != nullptr ? (*lp_of_router)[r] : 0u));
    }
    std::vector<net::Link*> forward_of_link(topo.links.size(), nullptr);
    for (std::size_t i = 0; i < topo.links.size(); ++i) {
      const GenLink& l = topo.links[i];
      forward_of_link[i] = &connect_core_directed(network, t.routers[l.a], t.routers[l.b], q);
      connect_core_directed(network, t.routers[l.b], t.routers[l.a], q);
    }
    for (std::size_t idx : topo.bottlenecks) t.bottlenecks.push_back(forward_of_link.at(idx));

    // Access links are fat drop-tail pipes: the core links are the bottlenecks.
    std::vector<net::NodeId> src_node(topo.routers, net::kInvalidNode);
    std::vector<net::NodeId> dst_node(topo.routers, net::kInvalidNode);
    for (std::uint32_t r : topo.sources) {
      src_node[r] = network.add_node("S" + std::to_string(r), network.lp_of(t.routers[r]));
      network.connect_duplex(src_node[r], t.routers[r], topo.cfg.access_rate, topo.cfg.link_delay,
                             topo.cfg.queue_capacity_packets);
      t.ingress.push_back(src_node[r]);
    }
    for (std::uint32_t r : topo.sinks) {
      dst_node[r] = network.add_node("D" + std::to_string(r), network.lp_of(t.routers[r]));
      network.connect_duplex(t.routers[r], dst_node[r], topo.cfg.access_rate, topo.cfg.link_delay,
                             topo.cfg.queue_capacity_packets);
      t.egress.push_back(dst_node[r]);
    }
    network.build_routes();

    t.flows.reserve(flows.size());
    for (GenFlow& f : flows) {
      net::FlowSpec fs;
      fs.id = f.id;
      fs.ingress = src_node[f.src_router];
      fs.egress = dst_node[f.dst_router];
      fs.weight = f.weight;
      fs.active = std::move(f.windows);
      if (f.id >= 1 && f.id - 1 < spec.flood_pps.size()) fs.flood_pps = spec.flood_pps[f.id - 1];
      t.flows.push_back(std::move(fs));
    }
    if (constraints) {
      // Each flow is constrained by its routed path: walk it once and
      // dense-index every link met.  Access links take part too; fat by
      // construction, they never bind in the water-filling.
      std::unordered_map<const net::Link*, std::uint32_t> link_index;
      t.flow_links.resize(t.flows.size());
      for (std::size_t fi = 0; fi < t.flows.size(); ++fi) {
        const std::vector<net::NodeId> hops = network.path(t.flows[fi].ingress, t.flows[fi].egress);
        for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
          const net::Link* l = network.find_link(hops[h], hops[h + 1]);
          if (l == nullptr) continue;
          const auto [it, fresh] =
              link_index.emplace(l, static_cast<std::uint32_t>(t.link_caps.size()));
          if (fresh) t.link_caps.push_back(l->rate().pps(topo.cfg.packet_size));
          t.flow_links[fi].push_back(it->second);
        }
      }
    }
    return t;
  };
  return b;
}

/// Spec-shape checks, in every build type: a mismatched spec from a
/// config script or a library caller must fail, not run silently.
void validate(const ScenarioSpec& spec) {
  if (spec.generated.has_value()) {
    const GeneratedWorkload& wl = *spec.generated;
    if (spec.num_flows != wl.flows.num_flows) {
      throw std::invalid_argument("spec.num_flows (" + std::to_string(spec.num_flows) +
                                  ") must equal generated->flows.num_flows (" +
                                  std::to_string(wl.flows.num_flows) + ")");
    }
    if (!wl.topology.connected()) {
      throw std::invalid_argument("generated topology '" + wl.topology.name +
                                  "' is not connected (" + std::to_string(wl.topology.routers) +
                                  " routers, " + std::to_string(wl.topology.links.size()) +
                                  " links)");
    }
  } else if (spec.weights.size() != spec.num_flows) {
    throw std::invalid_argument("spec.weights has " + std::to_string(spec.weights.size()) +
                                " entries for " + std::to_string(spec.num_flows) + " flows");
  }
}

}  // namespace

ScenarioResult run_paper_scenario(const ScenarioSpec& spec) {
  validate(spec);
  TopologyBuilder builder =
      spec.generated.has_value() ? generated_graph(spec) : figure2_chain(spec);

  sim::par::LpPlan plan;
  if (spec.lp > 1) {
    plan = sim::par::partition_lp_graph(builder.lp_graph, spec.lp);
    if (plan.zero_lookahead_fallback) {
      std::fprintf(stderr,
                   "corelite: --lp %zu requires positive link delay for lookahead; "
                   "falling back to the serial engine\n",
                   spec.lp);
    } else if (plan.lp_count < plan.requested) {
      std::fprintf(stderr, "corelite: --lp %zu clamped to %zu LPs (topology has %zu routers)\n",
                   spec.lp, plan.lp_count, builder.lp_graph.nodes);
    }
  }
  const bool lp_mode = plan.lp_count > 1;

  // Fluid fast-forward, the fairness audit and the instrument hook are
  // serial-only: the LP engine's barrier windows share no experiment-time
  // offset, the auditor's gauges read live link state, and collector
  // callbacks are not thread-safe.  lp > 1 runs without them.
  sim::fluid::FluidConfig fluid_cfg = spec.fluid;
  telemetry::FairnessAuditConfig audit_cfg = spec.audit;
  if (lp_mode) {
    if (fluid_cfg.enabled) {
      std::fprintf(stderr,
                   "corelite: fluid fast-forward is serial-only; running --lp %zu in pure "
                   "packet mode\n",
                   spec.lp);
      fluid_cfg.enabled = false;
    }
    if (audit_cfg.enabled) {
      std::fprintf(stderr,
                   "corelite: the fairness audit is not supported with --lp > 1; "
                   "skipping the auditor for this run\n");
      audit_cfg.enabled = false;
    }
    if (spec.instrument) {
      std::fprintf(stderr,
                   "corelite: telemetry instrumentation is not supported with --lp > 1; "
                   "skipping collectors for this run\n");
    }
  }
  const bool fluid_on = fluid_cfg.enabled;
  const bool audit_on = audit_cfg.enabled;

  sim::par::LpRuntime lp_rt{plan.lp_count, spec.seed, plan.lookahead, spec.lp_threads};
  if (spec.lp_probe != nullptr) lp_rt.set_probe(spec.lp_probe);
  sim::Simulator& simulator = lp_rt.lp_sim(0);
  std::unique_ptr<sim::fluid::TimeWarp> warp;
  if (fluid_on) warp = std::make_unique<sim::fluid::TimeWarp>(simulator);
  net::Network network{lp_rt};
  const WiredTopology topo =
      builder.wire(network, lp_mode ? &plan.lp_of_node : nullptr, fluid_on || audit_on);

  ScenarioResult result;
  stats::FlowTracker& tracker = result.tracker;
  tracker.set_series_enabled(topo.record_series);

  if (spec.control_loss_rate > 0.0) {
    for (const auto& link : network.links()) {
      link->set_control_loss_rate(spec.control_loss_rate);
    }
  }

  // Drop timing on the bottleneck links.  In LP mode each recorder
  // writes a private vector (links live on different LPs); the vectors
  // are merged and time-sorted after the run.
  std::vector<std::unique_ptr<DropRecorder>> drop_recorders;
  std::deque<std::vector<double>> lp_drop_sinks;
  for (net::Link* l : topo.bottlenecks) {
    auto rec = std::make_unique<DropRecorder>();
    rec->link = l;
    if (lp_mode) {
      lp_drop_sinks.emplace_back();
      rec->sink = &lp_drop_sinks.back();
    } else {
      rec->sink = &result.drop_times;
    }
    l->add_observer(rec.get(), net::Link::kObserveDrop);
    drop_recorders.push_back(std::move(rec));
  }

  // Mechanism wiring: core machinery on every router, then the edge
  // flavour the mechanism's sources use.
  std::vector<std::unique_ptr<qos::CoreliteEdgeRouter>> cl_edges;
  std::vector<std::unique_ptr<qos::CoreliteCoreRouter>> cl_cores;
  std::vector<std::unique_ptr<csfq::CsfqEdgeRouter>> csfq_edges;
  std::vector<std::unique_ptr<csfq::CsfqCoreRouter>> csfq_cores;
  std::vector<std::unique_ptr<csfq::LossNotifyingCoreRouter>> droptail_cores;
  std::vector<std::unique_ptr<qos::EcnCoreRouter>> ecn_cores;
  std::vector<std::unique_ptr<qos::EcnEgressAgent>> ecn_agents;
  bool corelite_edges = false;
  switch (spec.mechanism) {
    case Mechanism::Corelite:
      corelite_edges = true;
      for (net::NodeId r : topo.routers) {
        cl_cores.push_back(std::make_unique<qos::CoreliteCoreRouter>(network, r, spec.corelite));
      }
      break;
    case Mechanism::EcnBit:
      // Binary-marking control: Corelite edges, but cores set the DECbit
      // instead of echoing markers, and every egress echoes marked
      // packets back as unweighted feedback.
      corelite_edges = true;
      for (net::NodeId r : topo.routers) {
        ecn_cores.push_back(std::make_unique<qos::EcnCoreRouter>(network, r, spec.corelite));
      }
      for (net::NodeId n : topo.egress) {
        ecn_agents.push_back(std::make_unique<qos::EcnEgressAgent>(network, n));
      }
      break;
    case Mechanism::Csfq:
      for (net::NodeId r : topo.routers) {
        csfq_cores.push_back(std::make_unique<csfq::CsfqCoreRouter>(network, r, spec.csfq));
      }
      break;
    case Mechanism::DropTail:
    case Mechanism::Red:
    case Mechanism::Fred:
    case Mechanism::Choke:
    case Mechanism::Sfq:
    case Mechanism::Wfq:
      // Dumb cores + loss-reactive sources; the baselines differ only in
      // the core queue discipline the builder installed.
      for (net::NodeId r : topo.routers) {
        droptail_cores.push_back(std::make_unique<csfq::LossNotifyingCoreRouter>(network, r));
      }
      break;
  }

  // Egress sinks: count delivered data packets per flow, with one-way
  // delay measured from the edge's emission timestamp.  Each sink reads
  // its own node's clock: in LP mode that is the egress LP's simulator
  // (the single writer of its flows' delivery counters), serially the
  // one global simulator.
  for (std::size_t j = 0; j < topo.egress.size(); ++j) {
    const net::NodeId n = topo.egress[j];
    qos::EcnEgressAgent* agent = ecn_agents.empty() ? nullptr : ecn_agents[j].get();
    network.node(n).set_local_sink(
        [&tracker, &snk_sim = network.local_sim(n), agent](net::Packet&& p) {
          if (!p.is_data()) return;
          tracker.on_delivered(p.flow, snk_sim.now() - p.created);
          if (agent != nullptr) agent->on_data(p);
        });
  }

  // One edge router per ingress node, then every flow on its ingress's
  // edge in id order.  Edge constructors draw an RNG epoch phase and
  // add_flow schedules the first window, so this order is part of every
  // digest.
  std::vector<std::size_t> edge_of(network.node_count(), 0);
  for (net::NodeId n : topo.ingress) {
    if (corelite_edges) {
      edge_of[n] = cl_edges.size();
      cl_edges.push_back(
          std::make_unique<qos::CoreliteEdgeRouter>(network, n, spec.corelite, &tracker));
      if (warp) cl_edges.back()->set_fluid_warp(warp.get());
    } else {
      edge_of[n] = csfq_edges.size();
      csfq_edges.push_back(std::make_unique<csfq::CsfqEdgeRouter>(network, n, spec.csfq, &tracker));
      if (warp) csfq_edges.back()->set_fluid_warp(warp.get());
    }
  }
  for (const net::FlowSpec& fs : topo.flows) {
    if (corelite_edges) {
      cl_edges[edge_of[fs.ingress]]->add_flow(fs);
    } else {
      csfq_edges[edge_of[fs.ingress]]->add_flow(fs);
    }
  }

  // Fluid fast-forward controller: watches per-flow throughput EWMAs and,
  // once every flow sits inside the convergence band for the dwell
  // window AND the measured rates agree with the analytic water-filling
  // allocation over the constraint sets, compresses the experiment
  // timeline (simulator.exp_now() jumps ahead of the engine clock; the
  // warp registry caps each jump at the next activity-window boundary).
  std::unique_ptr<sim::fluid::FluidController> fluid_ctl;
  if (fluid_on) {
    fluid_cfg.synth_sample_period = spec.cumulative_sample_period;
    fluid_ctl = std::make_unique<sim::fluid::FluidController>(simulator, *warp, tracker,
                                                              fluid_cfg, spec.duration);
    fluid_ctl->set_link_capacities(topo.link_caps);
    for (std::size_t i = 0; i < topo.flows.size(); ++i) {
      fluid_ctl->add_flow(topo.flows[i].id, topo.flows[i].weight, topo.flow_links[i]);
    }
    if (spec.fluid_probe != nullptr) fluid_ctl->set_probe(spec.fluid_probe);
    fluid_ctl->start();
  }

  // Queue-length sampling on the bottleneck links.  Serially one timer
  // samples them all; in LP mode each link is sampled by a timer on its
  // from-node's LP (the link's owner), keeping every observation
  // single-threaded.
  result.queue_series.resize(topo.bottlenecks.size());
  std::vector<sim::PeriodicHandle> samplers;
  if (!lp_mode) {
    samplers.push_back(simulator.every(sim::TimeDelta::millis(100), [&result, &topo, &simulator] {
      for (std::size_t i = 0; i < topo.bottlenecks.size(); ++i) {
        result.queue_series[i].add(simulator.exp_now().sec(),
                                   static_cast<double>(topo.bottlenecks[i]->queued_data_packets()));
      }
    }));
  } else {
    for (std::size_t lp = 0; lp < plan.lp_count; ++lp) {
      std::vector<std::size_t> owned;
      for (std::size_t i = 0; i < topo.bottlenecks.size(); ++i) {
        if (network.lp_of(topo.bottlenecks[i]->from()) == lp) owned.push_back(i);
      }
      if (owned.empty()) continue;
      sim::Simulator& lsim = lp_rt.lp_sim(lp);
      samplers.push_back(
          lsim.every(sim::TimeDelta::millis(100), [&result, &topo, &lsim, owned] {
            for (std::size_t i : owned) {
              const auto q = static_cast<double>(topo.bottlenecks[i]->queued_data_packets());
              result.queue_series[i].add(lsim.now().sec(), q);
            }
          }));
    }
  }

  // Periodic cumulative-service sampling (Figure 4's series).  The LP
  // variant shards flows by egress LP so each series has one writer —
  // the same LP that bumps the flow's delivered counter.
  tracker.sample_cumulative(simulator.exp_now());
  if (!lp_mode) {
    samplers.push_back(simulator.every(spec.cumulative_sample_period, [&tracker, &simulator] {
      tracker.sample_cumulative(simulator.exp_now());
    }));
  } else {
    for (std::size_t lp = 0; lp < plan.lp_count; ++lp) {
      std::vector<net::FlowId> owned;
      for (const net::FlowSpec& fs : topo.flows) {
        if (network.lp_of(fs.egress) == lp) owned.push_back(fs.id);
      }
      if (owned.empty()) continue;
      sim::Simulator& lsim = lp_rt.lp_sim(lp);
      samplers.push_back(lsim.every(
          spec.cumulative_sample_period, [&tracker, &lsim, owned = std::move(owned)] {
            tracker.sample_cumulative(lsim.now(), owned);
          }));
    }
  }

  // Fairness auditor (opt-in): per-window oracle deviation over the same
  // constraint sets the fluid controller uses.  Its sampler adds
  // simulation events — the audit-on/off digest split documented in
  // ScenarioSpec::audit.
  std::unique_ptr<telemetry::FairnessAuditor> auditor;
  if (audit_on) {
    std::vector<telemetry::FairnessAuditor::FlowInfo> audit_flows;
    audit_flows.reserve(topo.flows.size());
    // Activity oracle over the flows' own windows, indexed by id.
    std::vector<const std::vector<net::ActiveInterval>*> active_of(topo.flows.size() + 1,
                                                                   nullptr);
    for (std::size_t i = 0; i < topo.flows.size(); ++i) {
      const net::FlowSpec& fs = topo.flows[i];
      audit_flows.push_back({fs.id, fs.weight, topo.flow_links[i]});
      if (fs.id < active_of.size()) active_of[fs.id] = &fs.active;
    }
    auto active_fn = [active_of = std::move(active_of)](net::FlowId id, double t_sec) {
      if (id >= active_of.size() || active_of[id] == nullptr || active_of[id]->empty()) {
        return true;
      }
      for (const auto& iv : *active_of[id]) {
        if (t_sec >= iv.start.sec() && t_sec < iv.stop.sec()) return true;
      }
      return false;
    };
    auditor = std::make_unique<telemetry::FairnessAuditor>(
        audit_cfg, tracker, topo.link_caps, std::move(audit_flows), std::move(active_fn));
    // Engine gauges for the flight recorder: bottleneck occupancy, plus
    // the CSFQ fair-share estimate α on each bottleneck link.
    for (std::size_t i = 0; i < topo.bottlenecks.size(); ++i) {
      net::Link* l = topo.bottlenecks[i];
      auditor->add_gauge("queue.bottleneck" + std::to_string(i), [l]() -> double {
        return static_cast<double>(l->queued_data_packets());
      });
    }
    for (std::size_t i = 0; i < topo.bottlenecks.size(); ++i) {
      const net::NodeId to = topo.bottlenecks[i]->to();
      for (const auto& c : csfq_cores) {
        if (c->node() != topo.bottlenecks[i]->from()) continue;
        const csfq::CsfqCoreRouter* core = c.get();
        auditor->add_gauge("csfq.alpha.bottleneck" + std::to_string(i), [core, to]() -> double {
          const auto* pol = core->policy_for(to);
          return pol != nullptr ? pol->alpha() : 0.0;
        });
      }
    }
    samplers.push_back(simulator.every(audit_cfg.window, [&simulator, aud = auditor.get()] {
      aud->on_window(simulator.exp_now());
    }));
  }

  // Telemetry hook last, so collectors see the fully wired network.
  if (spec.instrument && !lp_mode) spec.instrument(network, topo.bottlenecks);

  if (fluid_on) {
    // Each fast-forward jump stop()s the engine so the offset bump takes
    // effect between events; resume until experiment time reaches the
    // requested duration (engine deadline shrinks by the skipped span).
    while (simulator.now() < spec.duration - simulator.exp_offset()) {
      simulator.run_until(spec.duration - simulator.exp_offset());
    }
  } else {
    lp_rt.run_until(spec.duration);
  }
  for (auto& s : samplers) s.cancel();
  tracker.sample_cumulative(simulator.exp_now());
  if (lp_mode) {
    for (const auto& sink : lp_drop_sinks) {
      result.drop_times.insert(result.drop_times.end(), sink.begin(), sink.end());
    }
    std::sort(result.drop_times.begin(), result.drop_times.end());
  }

  // Global accounting.
  result.events_processed = lp_rt.events_processed();
  if (fluid_ctl) result.fluid_stats = fluid_ctl->stats();
  if (auditor) {
    result.audit_report = std::make_unique<telemetry::FairnessAuditReport>(auditor->take_report());
  }
  result.unrouteable = network.unrouteable_count();
  for (net::NodeId r : topo.routers) {
    std::size_t state = 0;
    for (net::Link* l : network.node(r).out_links()) {
      state += l->queue().flow_state_entries();
    }
    result.core_flow_state = std::max(result.core_flow_state, state);
  }
  for (const auto& link : network.links()) result.total_data_drops += link->stats().dropped;
  // Drops synthesized during fast-forwarded spans never cross a link,
  // so fold them into the global count here (congested_link_drops stays
  // a pure link-level observation).
  result.total_data_drops += result.fluid_stats.synth_dropped;
  for (const net::Link* l : topo.bottlenecks) result.congested_link_drops += l->stats().dropped;
  for (const auto& e : cl_edges) result.markers_injected += e->markers_injected();
  for (const auto& e : cl_edges) result.feedback_messages += e->feedback_received();
  for (const auto& e : csfq_edges) result.feedback_messages += e->loss_notices_received();
  // Mean q_avg per bottleneck link (Corelite only).
  for (const net::Link* l : topo.bottlenecks) {
    for (const auto& c : cl_cores) {
      if (c->node() != l->from()) continue;
      for (const auto& d : c->diagnostics()) {
        if (d.link_to == l->to() && d.q_avg_series != nullptr && !d.q_avg_series->empty()) {
          result.mean_q_avg.push_back(d.q_avg_series->average_over(0.0, spec.duration.sec()));
        }
      }
    }
  }
  sim::flush_hotpath_counters();
  return result;
}

std::unordered_map<net::FlowId, double> ideal_rates_at(const ScenarioSpec& spec, sim::SimTime t) {
  // The water-filling oracle models the paper's fixed three-link chain;
  // generated topologies have no closed-form here (the sweep falls back
  // to weight-normalized delivered throughput for them).
  if (spec.generated.has_value()) return {};
  const double cap = PaperTopologyConfig{spec.topology}.link_rate.pps(spec.topology.packet_size);
  std::vector<double> caps(PaperTopology::kCongestedLinks, cap);
  std::vector<stats::MaxMinFlow> flows;
  for (std::size_t i = 0; i < spec.num_flows; ++i) {
    const auto id = static_cast<net::FlowId>(i + 1);
    // Activity check: empty activity list means always-on.
    bool active = true;
    if (i < spec.activity.size() && !spec.activity[i].empty()) {
      active = false;
      for (const auto& iv : spec.activity[i]) {
        if (t >= iv.start && t < iv.stop) {
          active = true;
          break;
        }
      }
    }
    if (!active) continue;
    flows.push_back({id, spec.weights.at(i), PaperTopology::congested_links(id)});
  }
  return stats::weighted_max_min(caps, flows);
}

// --------------------------------------------------------------------------
// Paper scenario factories.

namespace {

std::vector<double> fig3_weights(std::size_t n) {
  std::vector<double> w(n, 2.0);
  auto set = [&](std::size_t f, double v) {
    if (f <= n) w[f - 1] = v;
  };
  set(5, 3.0);
  set(15, 3.0);
  set(1, 1.0);
  set(11, 1.0);
  set(16, 1.0);
  return w;
}

std::vector<double> fig7_weights(std::size_t n) {
  std::vector<double> w(n, 2.0);
  auto set = [&](std::size_t f, double v) {
    if (f <= n) w[f - 1] = v;
  };
  set(1, 1.0);
  set(11, 1.0);
  set(16, 1.0);
  set(5, 3.0);
  set(10, 3.0);
  set(15, 3.0);
  return w;
}

}  // namespace

ScenarioSpec fig3_network_dynamics(Mechanism m) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = 20;
  s.weights = fig3_weights(20);
  s.duration = sim::SimTime::seconds(760);
  s.activity.resize(20);
  for (std::size_t f = 1; f <= 20; ++f) {
    const bool late = (f == 1 || f == 9 || f == 10 || f == 11 || f == 16);
    if (late) {
      s.activity[f - 1] = {{sim::SimTime::seconds(250), sim::SimTime::seconds(500)}};
    } else {
      s.activity[f - 1] = {{sim::SimTime::zero(), sim::SimTime::seconds(750)}};
    }
  }
  return s;
}

ScenarioSpec fig5_simultaneous_start(Mechanism m) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = 10;
  s.weights.resize(10);
  for (std::size_t i = 1; i <= 10; ++i) {
    s.weights[i - 1] = std::ceil(static_cast<double>(i) / 2.0);  // 1,1,2,2,3,3,4,4,5,5
  }
  s.duration = sim::SimTime::seconds(80);
  return s;
}

ScenarioSpec fig7_staggered_start(Mechanism m) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = 20;
  s.weights = fig7_weights(20);
  s.duration = sim::SimTime::seconds(80);
  s.activity.resize(20);
  for (std::size_t f = 1; f <= 20; ++f) {
    s.activity[f - 1] = {{sim::SimTime::seconds(static_cast<double>(f - 1)),
                          sim::SimTime::infinite()}};
  }
  return s;
}

ScenarioSpec fig9_churn(Mechanism m) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = 20;
  s.weights = fig7_weights(20);
  s.duration = sim::SimTime::seconds(160);
  s.activity.resize(20);
  for (std::size_t f = 1; f <= 20; ++f) {
    const double start = static_cast<double>(f - 1);
    // Live 60 s, pause 5 s, run again until the end of the experiment.
    s.activity[f - 1] = {{sim::SimTime::seconds(start), sim::SimTime::seconds(start + 60)},
                         {sim::SimTime::seconds(start + 65), sim::SimTime::infinite()}};
  }
  return s;
}

ScenarioSpec random_churn(Mechanism m, std::size_t num_flows, sim::TimeDelta mean_on,
                          sim::TimeDelta mean_off, sim::SimTime duration, std::uint64_t seed) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = num_flows;
  s.duration = duration;
  s.seed = seed;
  s.weights.resize(num_flows);
  s.activity.resize(num_flows);
  sim::Rng rng{seed ^ 0x9e3779b97f4a7c15ULL};  // distinct stream from the sim's
  for (std::size_t i = 0; i < num_flows; ++i) {
    s.weights[i] = static_cast<double>(i % 3 + 1);
    double t = rng.exponential(mean_off.sec());
    std::vector<net::ActiveInterval> windows;
    while (t < duration.sec()) {
      const double on = rng.exponential(mean_on.sec());
      windows.push_back({sim::SimTime::seconds(t),
                         sim::SimTime::seconds(std::min(t + on, duration.sec()))});
      t += on + rng.exponential(mean_off.sec());
    }
    if (windows.empty()) {
      // Guarantee at least one active period per flow.
      windows.push_back({sim::SimTime::zero(), duration});
    }
    s.activity[i] = std::move(windows);
  }
  return s;
}

}  // namespace corelite::scenario
