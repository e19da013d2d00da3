// Weighted CSFQ edge behaviour + the paper's loss-driven source agents.
//
// The edge router estimates each flow's rate with exponential averaging
// (constant K) and stamps every data packet's label with the normalized
// rate r/w — the only information CSFQ cores use.  The co-located
// source agent shapes the flow at its allowed rate b_g and adapts b_g
// with the same LIMD/slow-start controller Corelite uses, with packet
// losses (LossNotice control packets from core routers) standing in for
// marker feedback, exactly as the paper's comparison sets up (§4).
//
// Note the structural difference the paper highlights: CSFQ losses do
// not identify which core link dropped, so the agent reacts to the
// TOTAL loss count per epoch, while Corelite's edge can take the max
// over core routers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "csfq/config.h"
#include "csfq/rate_estimator.h"
#include "net/flow.h"
#include "net/network.h"
#include "net/packet.h"
#include "qos/rate_controller.h"
#include "sim/chunked_store.h"
#include "sim/fluid/warp.h"
#include "stats/flow_tracker.h"

namespace corelite::csfq {

class CsfqEdgeRouter {
 public:
  CsfqEdgeRouter(net::Network& network, net::NodeId node, const CsfqConfig& config,
                 stats::FlowTracker* tracker = nullptr);

  CsfqEdgeRouter(const CsfqEdgeRouter&) = delete;
  CsfqEdgeRouter& operator=(const CsfqEdgeRouter&) = delete;
  ~CsfqEdgeRouter();

  void add_flow(const net::FlowSpec& spec);

  [[nodiscard]] double current_rate_pps(net::FlowId flow) const;
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] std::uint64_t loss_notices_received() const { return losses_received_; }

  /// Fluid fast-forward: route activity-window transitions through the
  /// experiment-time warp registry (see CoreliteEdgeRouter::
  /// set_fluid_warp).  Must be set before any add_flow; nullptr keeps
  /// the legacy engine-time scheduling bit for bit.
  void set_fluid_warp(sim::fluid::TimeWarp* warp) { warp_ = warp; }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Two cache lines.  The first holds everything emit_packet reads,
  /// so a packet emission touches one line and no second heap object;
  /// the second (activity windows, controller, epoch bookkeeping) is
  /// touched per activity window or per epoch.
  struct alignas(64) FlowState {
    ExponentialRateEstimator estimator;
    bool active = false;
    /// Emission events are fire-and-forget; stopping the flow bumps the
    /// generation so the old chain's in-flight event becomes a no-op.
    std::uint32_t emit_gen = 0;
    net::FlowId id;
    net::NodeId egress;
    double weight;
    /// Rate the source paces at: flood_pps for an unresponsive flood,
    /// else a copy of the controller's allowed rate (floored at 1e-3
    /// pkt/s), refreshed after every ctrl->reset and ctrl->on_epoch.
    double pace_pps = 0.0;

    std::vector<net::ActiveInterval> windows;  ///< the spec's activity windows
    double flood_pps;
    std::unique_ptr<qos::RateController> ctrl;
    int losses_this_epoch = 0;
    /// Position in active_ while active (kNoSlot otherwise) — O(1)
    /// swap-removal when the flow stops.
    std::size_t active_slot = kNoSlot;

    FlowState(const net::FlowSpec& s, const CsfqConfig& cfg)
        : estimator{cfg.k_flow},
          id{s.id},
          egress{s.egress},
          weight{s.weight},
          windows{s.active},
          flood_pps{s.flood_pps},
          ctrl{qos::make_rate_controller(cfg.adapt, s.min_rate_pps)} {}

    /// Re-read the pacing rate; call after any controller update.
    void refresh_pace() {
      pace_pps = flood_pps > 0.0 ? flood_pps : std::max(ctrl->rate_pps(), 1e-3);
    }
  };
  static_assert(sizeof(FlowState) == 2 * 64, "FlowState must stay two cache lines");

  /// Dense id-indexed lookup; nullptr for unknown flows.
  [[nodiscard]] FlowState* lookup(net::FlowId id) const {
    return id < by_id_.size() ? by_id_[id] : nullptr;
  }

  void schedule_window(FlowState& fs, std::size_t window);
  void start_flow(FlowState& fs);
  void stop_flow(FlowState& fs);
  void emit_packet(FlowState& fs);
  void on_epoch();
  void handle_local(net::Packet&& p);

  net::Network& net_;
  net::NodeId node_;
  CsfqConfig cfg_;
  stats::FlowTracker* tracker_;
  sim::fluid::TimeWarp* warp_ = nullptr;
  /// Owner (insertion order; appends never move a flow — emission
  /// events capture FlowState&), dense id index, and the set of
  /// currently active flows — per-epoch bookkeeping is O(active), and
  /// per-packet lookups are an array index instead of a hash probe.
  sim::ChunkedStore<FlowState> flows_;
  std::vector<FlowState*> by_id_;
  std::vector<FlowState*> active_;
  sim::PeriodicHandle epoch_timer_;
  std::uint64_t losses_received_ = 0;
};

}  // namespace corelite::csfq
