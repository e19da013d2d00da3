// Exponential rate averaging (Stoica et al., CSFQ, SIGCOMM'98 eq. 5).
//
// On each packet arrival the estimate is updated as
//   r_new = (1 - e^(-T/K)) * (l / T) + e^(-T/K) * r_old
// where T is the inter-arrival gap, l the packet's size (here 1 packet,
// so rates are in packets per second) and K the averaging constant.
// The exponential form makes the estimate insensitive to the packet
// length distribution and converges within a few K.
#pragma once

#include <cmath>

#include "sim/hotpath.h"
#include "sim/units.h"

namespace corelite::csfq {

class ExponentialRateEstimator {
 public:
  explicit ExponentialRateEstimator(sim::TimeDelta averaging_constant)
      : k_{averaging_constant.sec()} {}

  /// Record one arrival of `units` (packets or bytes — caller's choice,
  /// rate is in units/second).  Returns the updated estimate.
  double on_arrival(double units, sim::SimTime now) {
    if (!started_) {
      started_ = true;
      last_ = now;
      // First packet: seed the estimate assuming one inter-arrival of K.
      rate_ = units / k_;
      return rate_;
    }
    const double t = (now - last_).sec();
    last_ = now;
    if (t <= 0.0) {
      // Simultaneous arrival (possible with zero-delay hops): fold the
      // units in as if an infinitesimal gap — weight entirely to history
      // plus an instantaneous bump bounded by units/K.
      rate_ += units / k_;
      return rate_;
    }
    ++sim::hotpath_counters().exp_calls;
    const double decay = std::exp(-t / k_);
    rate_ = (1.0 - decay) * (units / t) + decay * rate_;
    return rate_;
  }

  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] bool started() const { return started_; }

  void reset() {
    started_ = false;
    rate_ = 0.0;
  }

 private:
  double k_;
  bool started_ = false;
  double rate_ = 0.0;
  sim::SimTime last_ = sim::SimTime::zero();
};

}  // namespace corelite::csfq
