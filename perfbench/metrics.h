// The benchmark's own metric arithmetic, kept free of simulator state so
// selftest.cpp can check it on hand-computed cases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Per-flow relative deviation from an oracle rate, averaged per flow
/// over the converged windows the flow was sampled in.
///   mean()  = mean over flows of that per-flow average  (oracle_err)
///   worst() = the largest per-flow average              (oracle_err_worst)
/// Samples whose oracle rate is not positive carry no information about
/// fairness and are skipped.
class OracleErr {
 public:
  void add(std::size_t flow, double measured, double oracle);
  [[nodiscard]] std::size_t flows() const { return per_flow_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double worst() const;

 private:
  struct Acc {
    double sum = 0.0;
    std::size_t n = 0;
  };
  std::map<std::size_t, Acc> per_flow_;
};

/// One finished run of a sweep, as the runner reports it.
struct RunSpan {
  double start_ms = 0.0;  ///< offset from the sweep's start
  double wall_ms = 0.0;
  std::size_t worker = 0;
};

/// Share of the pool's capacity (jobs x sweep wall) spent inside runs.
[[nodiscard]] double busy_frac(const std::vector<RunSpan>& runs, std::size_t jobs,
                               double sweep_wall_ms);

/// Seconds between the first worker running out of work and the last
/// run finishing: the sweep's tail, where part of the pool idles.
[[nodiscard]] double tail_s(const std::vector<RunSpan>& runs);

/// Facts about one run that the correctness checks read.
struct RunCheck {
  bool completed = true;         ///< the run returned normally
  std::uint64_t unrouteable = 0;
  std::size_t core_flow_state = 0;
  bool core_stateless = true;    ///< mechanism promises no per-flow core state
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
};

/// Counts runs attempted and runs failing a correctness check.  A run
/// fails if it did not complete, left packets unrouteable, held
/// per-flow core state under a core-stateless mechanism, or produced a
/// digest different from an earlier run of the same seed.
class FailureCounter {
 public:
  /// Records the run; returns the reason it failed, or nullopt.
  std::optional<std::string> record(const RunCheck& run);
  /// Counts a run that was refused before it started (bad input).
  void record_rejected() {
    ++attempted_;
    ++failed_;
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  /// failed / attempted, 0 when nothing was attempted.
  [[nodiscard]] double failed_share() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::uint64_t, std::uint64_t> digest_of_seed_;
};

/// Index of the first link whose summed per-flow rate floors exceed its
/// capacity, or nullopt when every link can carry its floors.
/// `flow_links[f]` lists the link indices flow f crosses.
[[nodiscard]] std::optional<std::size_t> floors_overflow(
    const std::vector<double>& capacity, const std::vector<std::vector<std::uint32_t>>& flow_links,
    const std::vector<double>& floor);

/// Median of a sample (mean of the middle pair when even; 0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// Mean of the middle half of a sample: the lowest and the highest
/// floor(n / 4) values are dropped (0 when empty).  Steadier than the
/// median on a skewed sample of a few dozen values, and still blind to
/// a single outlier.
[[nodiscard]] double middle_mean(std::vector<double> v);

}  // namespace perfbench
