#include "csfq/core.h"

#include <algorithm>
#include <utility>

#include "sim/hotpath.h"

namespace corelite::csfq {

// ---------------------------------------------------------------------------
// CsfqLinkPolicy

CsfqLinkPolicy::CsfqLinkPolicy(const CsfqConfig& cfg, double capacity_pps, sim::Rng& rng)
    : cfg_{cfg},
      capacity_pps_{capacity_pps},
      rng_{&rng},
      arrival_{cfg.k_link},
      accepted_{cfg.k_link} {}

void CsfqLinkPolicy::update_alpha(double label, bool dropped, sim::SimTime now) {
  const double a = arrival_.rate();
  if (a >= capacity_pps_) {
    // Congested regime.
    if (!congested_) {
      congested_ = true;
      window_start_ = now;
      if (alpha_ <= 0.0) {
        // First congestion ever: seed alpha from the largest label seen
        // so far (the CSFQ paper's initialization).
        alpha_ = tmp_alpha_ > 0.0 ? tmp_alpha_ : label;
      }
    } else if (now - window_start_ >= cfg_.k_alpha) {
      const double f = accepted_.rate();
      if (f > 0.0) {
        alpha_ *= capacity_pps_ / f;
      }
      window_start_ = now;
    }
  } else {
    // Uncongested: alpha tracks the largest label in the window, so an
    // under-loaded link never drops (alpha >= every label).
    if (congested_) {
      congested_ = false;
      window_start_ = now;
      tmp_alpha_ = 0.0;
    } else if (now - window_start_ >= cfg_.k_alpha) {
      if (tmp_alpha_ > 0.0) alpha_ = tmp_alpha_;
      window_start_ = now;
      tmp_alpha_ = 0.0;
    }
    tmp_alpha_ = std::max(tmp_alpha_, label);
  }
  (void)dropped;
}

bool CsfqLinkPolicy::admit(net::Packet& p, sim::SimTime now) {
  arrival_.on_arrival(1.0, now);

  const double label = p.label;
  double drop_prob = 0.0;
  if (congested_ && alpha_ > 0.0 && label > 0.0) {
    drop_prob = std::max(0.0, 1.0 - alpha_ / label);
  }
  const bool drop = rng_->bernoulli(drop_prob);

  if (!drop) {
    accepted_.on_arrival(1.0, now);
    // Relabel: downstream links must see the flow's *accepted* rate.
    if (alpha_ > 0.0) {
      if (alpha_ < label) ++sim::hotpath_counters().relabels;
      p.label = std::min(label, alpha_);
    }
  }
  update_alpha(label, drop, now);

  if (drop) {
    ++drops_;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// CsfqCoreRouter

struct CsfqCoreRouter::LinkState final : net::LinkObserver {
  CsfqCoreRouter* owner = nullptr;
  net::Link* link = nullptr;
  CsfqLinkPolicy policy;

  LinkState(CsfqCoreRouter* o, net::Link* l, const CsfqConfig& cfg, sim::Rng& rng)
      : owner{o}, link{l}, policy{cfg, l->rate().pps(cfg.packet_size), rng} {}

  void on_drop(const net::Packet& p, sim::SimTime /*now*/) override {
    if (p.is_data()) owner->send_loss_notice(p);
  }

  void on_link_destroyed(net::Link& /*l*/) override { link = nullptr; }
};

CsfqCoreRouter::CsfqCoreRouter(net::Network& network, net::NodeId node, const CsfqConfig& config)
    : net_{network}, node_{node}, cfg_{config} {
  for (net::Link* link : net_.node(node_).out_links()) {
    links_.push_back(std::make_unique<LinkState>(this, link, cfg_, net_.local_sim(node_).rng()));
    link->set_admission(&links_.back()->policy);
    link->add_observer(links_.back().get(), net::Link::kObserveDrop);
  }
}

CsfqCoreRouter::~CsfqCoreRouter() {
  // Unhook both registrations: the links may outlive this router (the
  // network owns them), so a leftover observer pointer would dangle.
  for (auto& ls : links_) {
    if (ls->link == nullptr) continue;
    ls->link->set_admission(nullptr);
    ls->link->remove_observer(ls.get());
  }
}

const CsfqLinkPolicy* CsfqCoreRouter::policy_for(net::NodeId link_to) const {
  for (const auto& ls : links_) {
    if (ls->link->to() == link_to) return &ls->policy;
  }
  return nullptr;
}

void CsfqCoreRouter::send_loss_notice(const net::Packet& dropped) {
  net::Packet notice;
  notice.uid = net_.next_packet_uid(node_);
  notice.kind = net::PacketKind::LossNotice;
  notice.flow = dropped.flow;
  notice.src = node_;
  notice.dst = dropped.src;  // back to the ingress edge
  notice.size = sim::DataSize::zero();
  notice.feedback_origin = node_;
  notice.created = net_.local_sim(node_).now();
  ++notices_sent_;
  net_.inject(node_, std::move(notice));
}

// ---------------------------------------------------------------------------
// LossNotifyingCoreRouter

struct LossNotifyingCoreRouter::DropWatch final : net::LinkObserver {
  LossNotifyingCoreRouter* owner = nullptr;
  net::Link* link = nullptr;
  DropWatch(LossNotifyingCoreRouter* o, net::Link* l) : owner{o}, link{l} {}
  void on_drop(const net::Packet& p, sim::SimTime /*now*/) override {
    if (p.is_data()) owner->send_loss_notice(p);
  }
  void on_link_destroyed(net::Link& /*l*/) override { link = nullptr; }
};

LossNotifyingCoreRouter::LossNotifyingCoreRouter(net::Network& network, net::NodeId node)
    : net_{network}, node_{node} {
  for (net::Link* link : net_.node(node_).out_links()) {
    watches_.push_back(std::make_unique<DropWatch>(this, link));
    link->add_observer(watches_.back().get(), net::Link::kObserveDrop);
  }
}

LossNotifyingCoreRouter::~LossNotifyingCoreRouter() {
  for (auto& w : watches_) {
    if (w->link != nullptr) w->link->remove_observer(w.get());
  }
}

void LossNotifyingCoreRouter::send_loss_notice(const net::Packet& dropped) {
  net::Packet notice;
  notice.uid = net_.next_packet_uid(node_);
  notice.kind = net::PacketKind::LossNotice;
  notice.flow = dropped.flow;
  notice.src = node_;
  notice.dst = dropped.src;
  notice.size = sim::DataSize::zero();
  notice.feedback_origin = node_;
  notice.created = net_.local_sim(node_).now();
  ++notices_sent_;
  net_.inject(node_, std::move(notice));
}

}  // namespace corelite::csfq
