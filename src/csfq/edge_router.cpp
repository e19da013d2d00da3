#include "csfq/edge_router.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace corelite::csfq {

CsfqEdgeRouter::CsfqEdgeRouter(net::Network& network, net::NodeId node, const CsfqConfig& config,
                               stats::FlowTracker* tracker)
    : net_{network}, node_{node}, cfg_{config}, tracker_{tracker} {
  net_.node(node_).set_local_sink([this](net::Packet&& p) { handle_local(std::move(p)); });
  const auto phase =
      sim::TimeDelta::seconds(net_.local_sim(node_).rng().uniform(0.0, cfg_.edge_epoch.sec()));
  epoch_timer_ = net_.local_sim(node_).every(cfg_.edge_epoch, [this] { on_epoch(); }, phase);
}

CsfqEdgeRouter::~CsfqEdgeRouter() { epoch_timer_.cancel(); }

void CsfqEdgeRouter::add_flow(const net::FlowSpec& spec) {
  assert(spec.ingress == node_);
  assert(spec.valid());
  if (tracker_ != nullptr) tracker_->declare_flow(spec.id, spec.weight);
  if (spec.id >= by_id_.size()) by_id_.resize(spec.id + 1, nullptr);
  assert(by_id_[spec.id] == nullptr && "duplicate flow id");
  FlowState& fs = flows_.emplace_back(spec, cfg_);
  by_id_[spec.id] = &fs;
  schedule_window(fs, 0);
}

// Lazy lifecycle cursor: only the next transition of each flow sits in
// the event queue (a 100k-flow churn population would otherwise park
// two events per window up front).  Each window still costs exactly one
// start and one finite-stop event, matching the eager schedule.
void CsfqEdgeRouter::schedule_window(FlowState& fs, std::size_t window) {
  auto& sim = net_.local_sim(node_);
  if (warp_ != nullptr) {
    // Fluid fast-forward: transitions are pinned to absolute
    // *experiment* time in the warp registry, whose heap top also caps
    // how far a fast-forward jump may reach.
    while (window < fs.windows.size() && fs.windows[window].stop <= sim.exp_now()) {
      ++window;
    }
    if (window >= fs.windows.size()) return;
    const sim::SimTime start = std::max(fs.windows[window].start, sim.exp_now());
    warp_->at_exp(start, [this, &fs, window] {
      start_flow(fs);
      const sim::SimTime stop = fs.windows[window].stop;
      if (stop < sim::SimTime::infinite()) {
        warp_->at_exp(stop, [this, &fs, window] {
          stop_flow(fs);
          schedule_window(fs, window + 1);
        });
      }
    });
    return;
  }
  while (window < fs.windows.size() && fs.windows[window].stop <= sim.now()) {
    ++window;  // window already wholly in the past
  }
  if (window >= fs.windows.size()) return;
  const sim::SimTime start = std::max(fs.windows[window].start, sim.now());
  sim.at_detached(start, [this, &fs, window] {
    start_flow(fs);
    const sim::SimTime stop = fs.windows[window].stop;
    if (stop < sim::SimTime::infinite()) {
      net_.local_sim(node_).at_detached(stop, [this, &fs, window] {
        stop_flow(fs);
        schedule_window(fs, window + 1);
      });
    }
  });
}

void CsfqEdgeRouter::start_flow(FlowState& fs) {
  if (fs.active) return;
  fs.active = true;
  fs.active_slot = active_.size();
  active_.push_back(&fs);
  fs.losses_this_epoch = 0;
  fs.estimator.reset();
  fs.ctrl->reset(net_.local_sim(node_).now());
  fs.refresh_pace();
  if (tracker_ != nullptr) {
    // Rate samples live on the experiment-time axis (identical to the
    // engine clock whenever fluid fast-forward is off).
    tracker_->record_rate(fs.id, net_.local_sim(node_).exp_now(), fs.ctrl->rate_pps());
  }
  emit_packet(fs);
}

void CsfqEdgeRouter::stop_flow(FlowState& fs) {
  if (!fs.active) return;
  fs.active = false;
  FlowState* last = active_.back();
  active_[fs.active_slot] = last;
  last->active_slot = fs.active_slot;
  active_.pop_back();
  fs.active_slot = kNoSlot;
  ++fs.emit_gen;  // orphan any in-flight emission event
  fs.losses_this_epoch = 0;
  if (tracker_ != nullptr) tracker_->record_rate(fs.id, net_.local_sim(node_).exp_now(), 0.0);
}

void CsfqEdgeRouter::emit_packet(FlowState& fs) {
  if (!fs.active) return;

  const sim::SimTime now = net_.local_sim(node_).now();
  const double estimate = fs.estimator.on_arrival(1.0, now);

  net::Packet p;
  p.uid = net_.next_packet_uid(node_);
  p.kind = net::PacketKind::Data;
  p.flow = fs.id;
  p.src = node_;
  p.dst = fs.egress;
  p.size = cfg_.packet_size;
  p.label = estimate / fs.weight;  // normalized rate label
  p.created = now;
  if (tracker_ != nullptr) tracker_->on_sent(fs.id);
  net_.inject(node_, std::move(p));

  // An unresponsive flood paces at its fixed rate regardless of the
  // controller; the label above still carries its true estimated rate,
  // so CSFQ cores see exactly what the protocol promises them.
  net_.local_sim(node_).after_detached(sim::TimeDelta::seconds(1.0 / fs.pace_pps),
                                  [this, &fs, gen = fs.emit_gen] {
                                    if (gen == fs.emit_gen) emit_packet(fs);
                                  });
}

void CsfqEdgeRouter::on_epoch() {
  const sim::SimTime now = net_.local_sim(node_).now();
  const sim::SimTime exp_now = net_.local_sim(node_).exp_now();
  for (FlowState* fsp : active_) {
    FlowState& fs = *fsp;
    const int losses = fs.losses_this_epoch;
    fs.losses_this_epoch = 0;
    if (fs.flood_pps > 0.0) {
      // Unresponsive source: loss feedback is discarded, the rate series
      // records the flood rate it actually emits at.
      if (tracker_ != nullptr) tracker_->record_rate(fs.id, exp_now, fs.flood_pps);
      continue;
    }
    fs.ctrl->on_epoch(losses, now);
    fs.refresh_pace();
    if (tracker_ != nullptr) tracker_->record_rate(fs.id, exp_now, fs.ctrl->rate_pps());
  }
}

void CsfqEdgeRouter::handle_local(net::Packet&& p) {
  switch (p.kind) {
    case net::PacketKind::LossNotice: {
      ++losses_received_;
      FlowState* fs = lookup(p.flow);
      if (fs != nullptr && fs->active) ++fs->losses_this_epoch;
      if (tracker_ != nullptr) {
        tracker_->on_feedback(p.flow);
        tracker_->on_dropped(p.flow);
      }
      break;
    }
    case net::PacketKind::Data:
      if (tracker_ != nullptr) tracker_->on_delivered(p.flow);
      break;
    default:
      break;
  }
}

double CsfqEdgeRouter::current_rate_pps(net::FlowId flow) const {
  const FlowState* fs = lookup(flow);
  if (fs == nullptr || !fs->active) return 0.0;
  return fs->ctrl->rate_pps();
}

}  // namespace corelite::csfq
