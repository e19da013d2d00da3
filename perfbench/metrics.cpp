#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

void OracleErr::add(std::size_t flow, double measured, double oracle) {
  if (!(oracle > 0.0)) return;
  Acc& a = per_flow_[flow];
  a.sum += std::abs(measured - oracle) / oracle;
  ++a.n;
}

double OracleErr::mean() const {
  if (per_flow_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& [flow, a] : per_flow_) s += a.sum / static_cast<double>(a.n);
  return s / static_cast<double>(per_flow_.size());
}

double OracleErr::worst() const {
  double w = 0.0;
  for (const auto& [flow, a] : per_flow_) w = std::max(w, a.sum / static_cast<double>(a.n));
  return w;
}

double busy_frac(const std::vector<RunSpan>& runs, std::size_t jobs, double sweep_wall_ms) {
  if (jobs == 0 || !(sweep_wall_ms > 0.0)) return 0.0;
  double busy = 0.0;
  for (const RunSpan& r : runs) busy += r.wall_ms;
  return busy / (static_cast<double>(jobs) * sweep_wall_ms);
}

double tail_s(const std::vector<RunSpan>& runs) {
  if (runs.empty()) return 0.0;
  // Each worker's last finish; the earliest of those is when the pool
  // first had an idle thread with nothing left to pick up.
  std::map<std::size_t, double> last_end;
  for (const RunSpan& r : runs) {
    double& e = last_end[r.worker];
    e = std::max(e, r.start_ms + r.wall_ms);
  }
  double first_idle = std::numeric_limits<double>::infinity();
  double end = 0.0;
  for (const auto& [worker, e] : last_end) {
    first_idle = std::min(first_idle, e);
    end = std::max(end, e);
  }
  return (end - first_idle) / 1000.0;
}

std::optional<std::string> FailureCounter::record(const RunCheck& run) {
  ++attempted_;
  std::optional<std::string> why;
  if (!run.completed) {
    why = "run did not complete";
  } else if (run.unrouteable > 0) {
    why = std::to_string(run.unrouteable) + " unrouteable packets";
  } else if (run.core_stateless && run.core_flow_state != 0) {
    why = "core-stateless mechanism holds " + std::to_string(run.core_flow_state) +
          " per-flow core entries";
  } else {
    const auto [it, fresh] = digest_of_seed_.emplace(run.seed, run.digest);
    if (!fresh && it->second != run.digest) why = "digest differs from an earlier run of the seed";
  }
  if (why) ++failed_;
  return why;
}

double FailureCounter::failed_share() const {
  return attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

std::optional<std::size_t> floors_overflow(
    const std::vector<double>& capacity, const std::vector<std::vector<std::uint32_t>>& flow_links,
    const std::vector<double>& floor) {
  std::vector<double> load(capacity.size(), 0.0);
  for (std::size_t f = 0; f < flow_links.size(); ++f) {
    for (std::uint32_t l : flow_links[f]) load.at(l) += floor.at(f);
  }
  for (std::size_t l = 0; l < capacity.size(); ++l) {
    if (load[l] > capacity[l]) return l;
  }
  return std::nullopt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double middle_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

}  // namespace perfbench
