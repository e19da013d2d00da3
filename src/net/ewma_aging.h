// Shared RED-family idle aging (Floyd & Jacobson 93, §4).
//
// RED, CHOKe and FRED all keep an EWMA of the data queue length and,
// when the queue goes idle, pretend `m = idle_time / service_time`
// small packets were serviced so the average decays by (1-w)^m.  The
// three disciplines previously triplicated this code; they now share
// this helper.
#pragma once

#include <algorithm>
#include <cmath>

#include "sim/units.h"

namespace corelite::net {

/// The EWMA average after an idle period of `idle`: the queue could
/// have serviced m = idle/service small packets, each decaying the
/// average by one EWMA step.
[[nodiscard]] inline double ewma_idle_aged(double avg, double ewma_weight, sim::TimeDelta idle,
                                           sim::TimeDelta typical_service) {
  const double m = std::max(0.0, idle.sec() / typical_service.sec());
  return avg * std::pow(1.0 - ewma_weight, m);
}

}  // namespace corelite::net
