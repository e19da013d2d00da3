#include "qos/rate_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace corelite::qos {

SlowStartBase::SlowStartBase(const RateAdaptConfig& cfg, double min_rate_contract_pps)
    : cfg_{cfg},
      floor_{std::max(cfg.min_rate_pps, min_rate_contract_pps)},
      rate_{std::max(cfg.initial_rate_pps, floor_)} {
  assert(cfg_.alpha_pps > 0.0 && cfg_.beta_pps > 0.0);
}

void SlowStartBase::reset(sim::SimTime now) {
  rate_ = std::max(cfg_.initial_rate_pps, floor_);
  slow_start_ = true;
  last_double_ = now;
}

void SlowStartBase::on_epoch(int feedback_count, sim::SimTime now) {
  assert(feedback_count >= 0);
  if (slow_start_) {
    if (feedback_count > 0) {
      // First congestion notification ends slow start (paper §4).
      rate_ = std::max(floor_, rate_ / 2.0);
      slow_start_ = false;
      return;
    }
    if (now - last_double_ >= cfg_.ss_double_interval) {
      rate_ *= 2.0;
      last_double_ = now;
      if (rate_ > cfg_.ss_thresh_pps) {
        // Strictly exceeded ss-thresh: halve and go closed-loop
        // (paper §4).  Doubling from below (1,2,...,32) exits at
        // 64 -> 32, matching "complete their slow-start phase at 7 s".
        rate_ = std::max(floor_, rate_ / 2.0);
        slow_start_ = false;
      }
    }
    return;
  }
  adapt(rate_, feedback_count, floor_);
}

void LimdRateController::adapt(double& rate, int feedback_count, double floor) {
  if (feedback_count == 0) {
    rate += cfg_.alpha_pps;  // probe for spare bandwidth
  } else {
    rate = std::max(floor, rate - cfg_.beta_pps * static_cast<double>(feedback_count));
  }
}

void AimdRateController::adapt(double& rate, int feedback_count, double floor) {
  if (feedback_count == 0) {
    rate += cfg_.alpha_pps;
  } else {
    rate = std::max(floor, rate * std::pow(1.0 - cfg_.md_factor,
                                           static_cast<double>(feedback_count)));
  }
}

void MimdRateController::adapt(double& rate, int feedback_count, double floor) {
  if (feedback_count == 0) {
    rate *= cfg_.mi_factor;
  } else {
    rate = std::max(floor, rate * std::pow(1.0 - cfg_.md_factor,
                                           static_cast<double>(feedback_count)));
  }
}

std::unique_ptr<RateController> make_rate_controller(const RateAdaptConfig& cfg,
                                                     double min_rate_contract_pps) {
  switch (cfg.kind) {
    case AdaptKind::Aimd:
      return std::make_unique<AimdRateController>(cfg, min_rate_contract_pps);
    case AdaptKind::Mimd:
      return std::make_unique<MimdRateController>(cfg, min_rate_contract_pps);
    case AdaptKind::Limd:
      break;
  }
  return std::make_unique<LimdRateController>(cfg, min_rate_contract_pps);
}

}  // namespace corelite::qos
