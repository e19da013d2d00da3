// Per-layer timing probes for the traced run: each drives one layer
// through its public API, sized from the workload's own parameters, and
// returns host nanoseconds (or microseconds) per operation.
#pragma once

#include <cstddef>
#include <vector>

#include "csfq/config.h"
#include "qos/config.h"
#include "sim/units.h"
#include "sim/fluid/allocator.h"

namespace perfbench {

/// sim::EventQueue hold model: `pending` events in flight; each firing
/// schedules its successor after the next delay of `delays_s` (cycled).
/// Returns ns per schedule + fire.
[[nodiscard]] double event_queue_ns(const std::vector<double>& delays_s, std::size_t pending,
                                    std::size_t ops);

/// A packet forwarded along a `hops`-link drop-tail chain at the link's
/// own pace.  Returns ns per link hop (queue, serialize, propagate,
/// deliver), event engine included.
[[nodiscard]] double link_hop_ns(corelite::sim::Rate rate, corelite::sim::TimeDelta delay,
                                 corelite::sim::DataSize packet, std::size_t hops,
                                 std::size_t packets);

/// Corelite core per-marker work: the stateless selector fed markers
/// whose labels cycle through `labels`, with one epoch close every
/// `markers_per_epoch` markers.  Returns ns per marker.
[[nodiscard]] double corelite_marker_ns(const corelite::qos::CoreliteConfig& cfg,
                                        const std::vector<double>& labels,
                                        std::size_t markers_per_epoch, std::size_t markers);

/// CSFQ core admission: a link policy of `capacity_pps` offered labelled
/// packets at 1.25x its capacity.  Returns ns per admit() call.
[[nodiscard]] double csfq_admit_ns(const corelite::csfq::CsfqConfig& cfg, double capacity_pps,
                                   const std::vector<double>& labels, std::size_t packets);

/// sim::fluid::water_fill on the given problem.  Returns us per call.
[[nodiscard]] double water_fill_us(const std::vector<double>& capacity,
                                   const std::vector<corelite::sim::fluid::AllocFlow>& flows,
                                   std::size_t calls);

}  // namespace perfbench
