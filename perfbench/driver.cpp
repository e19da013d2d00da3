// Benchmark driver: runs one workload for a fixed host-time budget and
// prints its metrics, one "metric <name> <value> <unit>" line each,
// then a single JSON object as the last line of standard output.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--revision TEXT] [--trace-file PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a separately instrumented run (see README.md).
// Exit status is 0 on a completed measurement (check "correct" in the
// JSON), 2 on bad arguments.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics.h"
#include "net/link.h"
#include "probes.h"
#include "runner/sweep.h"
#include "sim/hotpath.h"
#include "workloads.h"

namespace cs = corelite::scenario;
namespace rn = corelite::runner;
namespace sim = corelite::sim;
namespace net = corelite::net;
using perfbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds spent by the calling thread, or by every thread of the
/// process.  Set-up and simulation are timed on these rather than on the
/// wall clock: they leave out the time a shared host gives to other work
/// (preemption, hypervisor steal), which made wall-clock times unsteady.
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string revision = "unknown";
  std::string trace_file;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--revision") {
      a.revision = v;
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return a;
}

std::size_t cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Returns freed heap to the OS and restarts the kernel's peak-RSS
/// count (VmHWM), so the next peak_rss_mb() reads one run's peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

/// Peak resident memory since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // whole-process peak, in KiB
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) o.push_back(c);
  }
  return o;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// A metric of the JSON result.
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// A metric printed for the reader but kept out of the JSON result,
  /// because it is legitimately 0 on some workload and so cannot carry
  /// a relative regression bound.
  void info(std::string name, double value, std::string unit) {
    info_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Prints every metric line, then the one-line JSON result.
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    for (const auto* list : {&metrics_, &info_}) {
      for (const Metric& m : *list) {
        std::printf("metric %-28s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
};

/// Spans recorded around the driver's calls into each layer, kept in
/// memory and written as a Chrome trace when the traced run ends.
class Spans {
 public:
  using Id = std::size_t;
  Id begin(std::string name, std::optional<Id> parent = std::nullopt) {
    spans_.push_back({std::move(name), Clock::now(), Clock::now(), parent});
    return spans_.size() - 1;
  }
  void end(Id id) { spans_[id].end = Clock::now(); }
  void write(const std::string& path) const {
    if (path.empty() || spans_.empty()) return;
    std::filesystem::create_directories(std::filesystem::path{path}.parent_path());
    std::ofstream out{path};
    const auto t0 = spans_.front().start;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n {\"name\": \"" << json_escape(s.name)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << std::chrono::duration<double, std::micro>(s.start - t0).count()
          << ", \"dur\": " << std::chrono::duration<double, std::micro>(s.end - s.start).count()
          << ", \"args\": {\"id\": " << i << ", \"parent\": "
          << (s.parent ? static_cast<long long>(*s.parent) : -1LL) << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::optional<Id> parent;
  };
  std::vector<Span> spans_;
};

/// Mean data-queue length reported at every queue-length change on the
/// bottleneck links (the traced run's link-layer observer).
class QlenTally final : public net::LinkObserver {
 public:
  QlenTally() = default;
  QlenTally(const QlenTally&) = delete;
  QlenTally& operator=(const QlenTally&) = delete;
  ~QlenTally() override {
    for (net::Link* l : links_) l->remove_observer(this);
  }
  void attach(const std::vector<net::Link*>& links) {
    for (net::Link* l : links) {
      if (l == nullptr) continue;
      l->add_observer(this, net::Link::kObserveQueueLength);
      links_.push_back(l);
    }
  }
  void on_queue_length(std::size_t len, sim::SimTime) override {
    sum_ += static_cast<double>(len);
    ++n_;
  }
  void on_link_destroyed(net::Link& l) override { std::erase(links_, &l); }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }

 private:
  std::vector<net::Link*> links_;
  double sum_ = 0.0;
  std::uint64_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Single runs.

/// Thrown from the instrument hook to end a run once set-up is measured.
struct SetupDone {};
/// Thrown from the instrument hook when the workload is infeasible.
struct Rejected : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct SingleRun {
  bool completed = false;
  bool rejected = false;
  std::string error;
  double spec_s = 0.0;    ///< building the spec (CPU seconds)
  double wire_s = 0.0;    ///< run_paper_scenario() entry to the hook (CPU seconds)
  double sim_s = 0.0;     ///< hook return to run_paper_scenario() return
  double sim_cpu_s = 0.0; ///< the same span in CPU seconds of the simulating thread
  double analysis_s = 0.0;
  std::optional<cs::ScenarioSpec> spec;
  std::optional<cs::ScenarioResult> result;
  perfbench::FlowModel model;
  perfbench::Fidelity fidelity;
  double qlen_mean = 0.0;
};

struct RunOptions {
  bool analyse = false;      ///< build the flow model, check floors, score fidelity
  bool setup_only = false;   ///< stop at the hook
  bool tally_qlen = false;   ///< traced: observe bottleneck queue lengths
};

SingleRun run_single(const Workload& w, std::uint64_t seed, const RunOptions& opt,
                     Spans* spans = nullptr) {
  SingleRun out;
  const auto root = spans ? std::optional{spans->begin("run seed " + std::to_string(seed))}
                          : std::nullopt;
  const double c0 = thread_cpu_s();
  std::optional<Spans::Id> span_spec;
  if (spans) span_spec = spans->begin("scenario.spec", root);
  cs::ScenarioSpec spec = perfbench::single_spec(w, seed);
  const double c1 = thread_cpu_s();
  if (spans) spans->end(*span_spec);

  double c_hook = 0.0;
  Clock::time_point t_sim{};
  double cpu_sim = 0.0;
  QlenTally tally;
  std::optional<Spans::Id> span_wire;
  std::optional<Spans::Id> span_sim;
  if (spans) span_wire = spans->begin("scenario.wire", root);
  spec.instrument = [&](net::Network& network, const std::vector<net::Link*>& bottlenecks) {
    c_hook = thread_cpu_s();
    if (spans) spans->end(*span_wire);
    if (opt.setup_only) throw SetupDone{};
    if (opt.analyse) {
      out.model = spec.generated.has_value()
                      ? perfbench::generated_model(spec, network, bottlenecks)
                      : perfbench::paper_model(spec);
      const std::vector<double> floors(out.model.ids.size(), perfbench::floor_pps(spec));
      if (const auto l = perfbench::floors_overflow(out.model.capacity, out.model.links, floors)) {
        throw Rejected{"rate floors exceed the capacity of link " + std::to_string(*l)};
      }
    }
    if (opt.tally_qlen) tally.attach(bottlenecks);
    if (spans) span_sim = spans->begin("sim.run", root);
    cpu_sim = thread_cpu_s();
    t_sim = Clock::now();
  };

  try {
    out.result.emplace(cs::run_paper_scenario(spec));
    out.completed = true;
  } catch (const SetupDone&) {
  } catch (const Rejected& e) {
    out.rejected = true;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  const auto t2 = Clock::now();
  const double cpu_end = thread_cpu_s();
  if (spans && span_sim) spans->end(*span_sim);
  out.spec_s = c1 - c0;
  out.wire_s = c_hook - c1;
  if (out.completed) {
    out.sim_s = secs(t_sim, t2);
    out.sim_cpu_s = cpu_end - cpu_sim;
    out.qlen_mean = tally.mean();
    if (opt.analyse) {
      std::optional<Spans::Id> span_an;
      if (spans) span_an = spans->begin("stats.analysis", root);
      const auto a0 = Clock::now();
      out.fidelity = perfbench::analyse_run(w, spec, *out.result, out.model);
      out.analysis_s = secs(a0, Clock::now());
      if (spans) spans->end(*span_an);
    }
  }
  if (spans) spans->end(*root);
  spec.instrument = nullptr;
  out.spec = std::move(spec);
  return out;
}

perfbench::RunCheck check_of(const SingleRun& r, std::uint64_t seed) {
  perfbench::RunCheck c;
  c.completed = r.completed;
  c.seed = seed;
  c.core_stateless = perfbench::core_stateless(r.spec->mechanism);
  if (r.completed) {
    c.unrouteable = r.result->unrouteable;
    c.core_flow_state = r.result->core_flow_state;
    c.digest = rn::result_digest(*r.result);
  }
  return c;
}

/// Records one run; prints why it failed, if it did.
void tally_run(perfbench::FailureCounter& fc, const SingleRun& r, std::uint64_t seed) {
  if (r.rejected) {
    fc.record_rejected();
    std::printf("FAILED seed %llu: rejected: %s\n", static_cast<unsigned long long>(seed),
                r.error.c_str());
    return;
  }
  if (const auto why = fc.record(check_of(r, seed))) {
    std::printf("FAILED seed %llu: %s%s%s\n", static_cast<unsigned long long>(seed), why->c_str(),
                r.error.empty() ? "" : ": ", r.error.c_str());
  }
}

/// Hard stop well inside the 180 s a run may take.
constexpr double kMaxRunSeconds = 120.0;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) { return rn::derive_seed(seed, k); }

/// Extra set-up samples from runs cut at the hook: at least 8, then
/// more until half a second is spent (cheap set-ups get many samples).
std::vector<double> setup_probes(const Workload& w, std::uint64_t seed,
                                 std::vector<double>* spec_s = nullptr,
                                 std::vector<double>* wire_s = nullptr) {
  std::vector<double> out;
  const auto start = Clock::now();
  for (std::size_t p = 0; p < 8 || (p < 64 && secs(start, Clock::now()) < 0.5); ++p) {
    const SingleRun r = run_single(w, sub_seed(seed, p % w.sub_seeds), {.setup_only = true});
    out.push_back(r.spec_s + r.wire_s);
    if (spec_s != nullptr) spec_s->push_back(r.spec_s);
    if (wire_s != nullptr) wire_s->push_back(r.wire_s);
  }
  return out;
}

/// End-to-end measurement of a single-run workload.  Runs cycle through
/// the workload's sub-seeds until the time budget is spent, every
/// sub-seed ran, and the first ran twice (so at least one digest is
/// checked against a repeat).  Simulated metrics come from the first
/// run of each sub-seed; each is the median over sub-seeds.  Host speed
/// of a sub-seed is its simulated seconds over the median CPU time of
/// its runs, and the reported speed is the middle-half mean over
/// sub-seeds.
int measure_single(const Workload& w, const Args& a) {
  perfbench::FailureCounter fc;
  const std::size_t K = w.sub_seeds;
  std::vector<std::vector<double>> cpus(K);
  std::vector<std::vector<double>> walls(K);
  std::vector<double> rss;
  std::vector<double> setups;
  std::vector<perfbench::Fidelity> fid(K);
  std::vector<double> sim_seconds(K, 0.0);
  std::uint64_t events = 0;

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % K;
    const std::uint64_t seed = sub_seed(a.seed, k);
    const bool first = i < K;
    reset_peak_rss();
    const SingleRun r = run_single(w, seed, {.analyse = first});
    rss.push_back(peak_rss_mb());
    tally_run(fc, r, seed);
    if (!r.completed) {
      Report{}.print(false, fc.attempted(), fc.failed());
      return 1;
    }
    setups.push_back(r.spec_s + r.wire_s);
    cpus[k].push_back(r.sim_cpu_s);
    walls[k].push_back(r.sim_s);
    if (first) {
      fid[k] = r.fidelity;
      sim_seconds[k] = r.spec->duration.sec();
      events += r.result->events_processed;
    }
    const double elapsed = secs(start, Clock::now());
    if ((i + 1 > K && elapsed >= a.seconds) || (i + 1 >= K && elapsed >= kMaxRunSeconds)) break;
  }
  for (const double s : setup_probes(w, a.seed)) setups.push_back(s);

  // Robust statistics over sub-seeds: one outlying population (a fluid
  // run that certifies late) must not move a figure as a mean would.
  std::vector<double> speed;
  std::vector<double> err, worst, util, loss, delivered;
  for (std::size_t k = 0; k < K; ++k) {
    speed.push_back(sim_seconds[k] / perfbench::median(cpus[k]));
    err.push_back(fid[k].oracle_err);
    worst.push_back(fid[k].oracle_err_worst);
    util.push_back(fid[k].goodput_util);
    loss.push_back(fid[k].loss_pct);
    delivered.push_back(fid[k].delivered_pct);
    std::printf("info sub-seed %zu: %zu flows scored, cpu/wall (s):", k, fid[k].scored_flows);
    for (std::size_t j = 0; j < cpus[k].size(); ++j) {
      std::printf(" %.4f/%.4f", cpus[k][j], walls[k][j]);
    }
    std::printf("\n");
  }
  std::printf("info events (first run of each sub-seed): %llu\n",
              static_cast<unsigned long long>(events));

  Report rep;
  rep.add("sim_s_per_s", perfbench::middle_mean(speed), "1/s");
  rep.add("setup_s", perfbench::median(setups), "s");
  rep.add("peak_rss_mb", perfbench::median(rss), "MB");
  rep.add("oracle_err", perfbench::median(err), "ratio");
  rep.add("oracle_err_worst", perfbench::median(worst), "ratio");
  rep.add("goodput_util", perfbench::median(util), "ratio");
  rep.add("delivered_pct", perfbench::median(delivered), "%");
  rep.info("loss_pct", perfbench::median(loss), "%");
  rep.info("failed_runs", fc.failed_share(), "ratio");
  rep.print(fc.failed() == 0, fc.attempted(), fc.failed());
  return 0;
}

// ---------------------------------------------------------------------------
// Sweeps.

std::size_t sweep_jobs() { return std::min<std::size_t>(4, cpu_count()); }

struct SweepRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU seconds of every thread of the process
  std::vector<rn::RunResult> results;
};

SweepRun run_sweep(const std::vector<rn::RunDescriptor>& runs, std::size_t jobs,
                   const cs::ScenarioSpec::InstrumentFn& run0_instrument = nullptr) {
  rn::SweepRunner runner{jobs};
  if (run0_instrument) runner.set_run_instrument(0, run0_instrument);
  SweepRun out;
  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  out.results = runner.run(runs);
  out.wall_s = secs(t0, Clock::now());
  out.cpu_s = process_cpu_s() - c0;
  return out;
}

void tally_sweep(perfbench::FailureCounter& fc, const SweepRun& s) {
  for (const rn::RunResult& r : s.results) {
    perfbench::RunCheck c;
    c.completed = r.ok;
    c.core_flow_state = r.core_flow_state;
    c.core_stateless = perfbench::core_stateless(r.desc.mechanism);
    c.seed = r.index;  // one descriptor per index: repeats of it must agree
    c.digest = r.digest;
    if (const auto why = fc.record(c)) {
      std::printf("FAILED run %zu (%s): %s\n", r.index, rn::cell_key(r.desc).c_str(),
                  why->c_str());
    }
  }
}

/// Set-up time of each distinct (scenario, mechanism) cell of the grid:
/// build_spec() plus wiring, cut at the instrument hook.
std::vector<double> sweep_setups(const std::vector<rn::RunDescriptor>& runs, std::size_t rounds,
                                 std::vector<double>* spec_s = nullptr) {
  std::vector<double> out;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const rn::RunDescriptor& d : runs) {
      if (d.repeat != 0) continue;
      const double c0 = thread_cpu_s();
      auto spec = rn::build_spec(d);
      const double c1 = thread_cpu_s();
      double c_hook = 0.0;
      spec->instrument = [&](net::Network&, const std::vector<net::Link*>&) {
        c_hook = thread_cpu_s();
        throw SetupDone{};
      };
      try {
        (void)cs::run_paper_scenario(*spec);
      } catch (const SetupDone&) {
      }
      out.push_back(c_hook - c0);
      if (spec_s != nullptr) spec_s->push_back(c1 - c0);
    }
  }
  return out;
}

double grid_sim_seconds(const std::vector<rn::RunDescriptor>& runs) {
  double s = 0.0;
  for (const auto& d : runs) s += rn::build_spec(d)->duration.sec();
  return s;
}

int measure_sweep(const Workload& w, const Args& a) {
  perfbench::FailureCounter fc;
  const auto runs = rn::expand_grid(perfbench::sweep_grid(w, a.seed));
  const std::size_t jobs = sweep_jobs();
  const double sim_total = grid_sim_seconds(runs);
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> rss;
  std::vector<rn::RunResult> first;

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    reset_peak_rss();
    SweepRun s = run_sweep(runs, jobs);
    rss.push_back(peak_rss_mb());
    tally_sweep(fc, s);
    walls.push_back(s.wall_s);
    cpus.push_back(s.cpu_s);
    if (i == 0) first = std::move(s.results);
    const double elapsed = secs(start, Clock::now());
    if ((i + 1 >= 2 && elapsed >= a.seconds) || elapsed >= kMaxRunSeconds) break;
  }
  const std::vector<double> setups = sweep_setups(runs, 3);
  const perfbench::Fidelity fid = perfbench::analyse_sweep(first);
  std::printf("info sweep: %zu runs x %zu repetitions, jobs %zu, median wall %.4f s, "
              "median cpu %.4f s, combined digest %016llx\n",
              runs.size(), walls.size(), jobs, perfbench::median(walls), perfbench::median(cpus),
              static_cast<unsigned long long>(rn::combined_digest(first)));

  Report rep;
  rep.add("sim_s_per_s", sim_total / perfbench::median(cpus), "1/s");
  rep.add("setup_s", perfbench::median(setups), "s");
  rep.add("peak_rss_mb", perfbench::median(rss), "MB");
  rep.add("oracle_err", fid.oracle_err, "ratio");
  rep.add("oracle_err_worst", fid.oracle_err_worst, "ratio");
  rep.add("goodput_util", fid.goodput_util, "ratio");
  rep.add("delivered_pct", fid.delivered_pct, "%");
  rep.info("loss_pct", fid.loss_pct, "%");
  rep.info("failed_runs", fc.failed_share(), "ratio");
  rep.print(fc.failed() == 0, fc.attempted(), fc.failed());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced (per-layer) runs.

/// Inputs sized from the workload for the per-layer probes.
struct ProbeInputs {
  std::vector<double> delays;  ///< event delay mix (s)
  std::size_t pending = 64;
  sim::Rate core_rate = sim::Rate::mbps(4);
  sim::TimeDelta core_delay = sim::TimeDelta::millis(10);
  sim::DataSize packet = sim::DataSize::kilobytes(1);
  std::vector<double> labels;  ///< normalized fair rates (pkt/s per unit weight)
  std::vector<double> capacity;
  std::vector<sim::fluid::AllocFlow> alloc;
};

ProbeInputs probe_inputs(const cs::ScenarioSpec& spec, const perfbench::FlowModel& m) {
  ProbeInputs p;
  if (spec.generated.has_value()) {
    const auto& c = spec.generated->topology.cfg;
    p.core_rate = c.core_rate;
    p.core_delay = c.link_delay;
    p.packet = c.packet_size;
    p.delays = {c.core_rate.serialization_time(c.packet_size).sec(),
                c.access_rate.serialization_time(c.packet_size).sec(), c.link_delay.sec()};
  } else {
    p.core_rate = spec.topology.link_rate;
    p.core_delay = spec.topology.link_delay;
    p.packet = spec.topology.packet_size;
    p.delays = {p.core_rate.serialization_time(p.packet).sec(), p.core_delay.sec()};
  }
  p.delays.push_back(spec.corelite.edge_epoch.sec());
  p.delays.push_back(spec.corelite.core_epoch.sec());
  p.delays.push_back(spec.cumulative_sample_period.sec());
  p.pending = std::max<std::size_t>(64, 2 * m.ids.size());

  const double mid = 0.5 * spec.duration.sec();
  const std::vector<double> oracle = perfbench::oracle_rates(spec, m, mid);
  for (std::size_t f = 0; f < m.ids.size(); ++f) {
    if (oracle[f] > 0.0) p.labels.push_back(oracle[f] / m.weights[f]);
    if (m.active_at(f, mid)) {
      p.alloc.push_back({m.weights[f], std::numeric_limits<double>::infinity(), m.links[f]});
    }
  }
  if (p.labels.empty()) p.labels.push_back(1.0);
  p.capacity = m.capacity;
  return p;
}

struct LayerProbes {
  double queue_ns = 0.0;
  double hop_ns = 0.0;
  double marker_ns = 0.0;
  double admit_ns = 0.0;
  double water_fill_us = 0.0;
};

LayerProbes run_probes(const cs::ScenarioSpec& spec, const ProbeInputs& p, Spans& spans) {
  LayerProbes out;
  auto timed = [&](const char* name, auto&& fn) {
    const auto id = spans.begin(name);
    std::vector<double> v;
    for (int i = 0; i < 5; ++i) v.push_back(fn());
    spans.end(id);
    return perfbench::median(v);
  };
  out.queue_ns = timed("probe sim.queue", [&] {
    return perfbench::event_queue_ns(p.delays, p.pending, 400000);
  });
  out.hop_ns = timed("probe net.hop", [&] {
    return perfbench::link_hop_ns(p.core_rate, p.core_delay, p.packet, 4, 20000);
  });
  out.marker_ns = timed("probe qos.marker", [&] {
    return perfbench::corelite_marker_ns(spec.corelite, p.labels, 50, 200000);
  });
  out.admit_ns = timed("probe csfq.admit", [&] {
    return perfbench::csfq_admit_ns(spec.csfq, p.core_rate.pps(p.packet), p.labels, 200000);
  });
  // Size the water-fill batch so one sample takes a few milliseconds.
  const double one = perfbench::water_fill_us(p.capacity, p.alloc, 1);
  const auto calls =
      static_cast<std::size_t>(std::clamp(5000.0 / std::max(one, 1e-3), 1.0, 5000.0));
  out.water_fill_us = timed("probe fluid.water_fill", [&] {
    return perfbench::water_fill_us(p.capacity, p.alloc, calls);
  });
  return out;
}

double pct_change(double traced, double plain) {
  return plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0;
}

void add_layer_common(Report& rep, const sim::HotPathCounters& c, std::uint64_t events,
                      const LayerProbes& pr) {
  const double ev = static_cast<double>(std::max<std::uint64_t>(events, 1));
  rep.add("sim.events", static_cast<double>(events), "count");
  rep.add("sim.wheel_frac", c.wheel_insert_rate(), "ratio");
  rep.add("sim.cascades_per_event", static_cast<double>(c.wheel_cascades) / ev, "ratio");
  rep.add("sim.batch_fused", static_cast<double>(c.batch_drained), "count");
  rep.add("sim.rng_draws", static_cast<double>(c.rng_draws), "count");
  rep.add("sim.queue_ns", pr.queue_ns, "ns");
  rep.add("net.observer_dispatches", static_cast<double>(c.observer_dispatches), "count");
  rep.add("net.hop_ns", pr.hop_ns, "ns");
  rep.add("qos.core_ns_per_marker", pr.marker_ns, "ns");
  rep.add("csfq.exp_calls", static_cast<double>(c.exp_calls), "count");
  rep.add("csfq.exp_hit_rate", c.exp_hit_rate(), "ratio");
  rep.add("csfq.admit_ns", pr.admit_ns, "ns");
  rep.add("stats.series_appends", static_cast<double>(c.series_appends), "count");
  rep.add("fluid.water_fill_us", pr.water_fill_us, "us");
}

/// Per-layer measurement of a single-run workload: pairs of an untimed-
/// instrumentation run and a traced run of the first sub-seed, then the
/// layer probes.
int trace_single(const Workload& w, const Args& a) {
  perfbench::FailureCounter fc;
  Spans spans;
  const std::uint64_t seed = sub_seed(a.seed, 0);
  std::vector<double> plain_cpus;
  std::vector<double> traced_cpus;
  std::vector<double> spec_s;
  std::vector<double> wire_s;
  std::vector<double> analysis_s;
  std::optional<SingleRun> canon;
  sim::HotPathCounters counters{};

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    // Alternate which of the pair goes first so warm-up favours neither.
    SingleRun plain;
    if (i % 2 == 1) plain = run_single(w, seed, {});
    sim::reset_hotpath_counters();
    SingleRun traced = run_single(w, seed, {.analyse = true, .tally_qlen = true}, &spans);
    const sim::HotPathCounters c = sim::aggregated_hotpath_counters();
    if (i % 2 == 0) plain = run_single(w, seed, {});
    tally_run(fc, plain, seed);
    tally_run(fc, traced, seed);
    if (!plain.completed || !traced.completed) break;
    plain_cpus.push_back(plain.sim_cpu_s);
    traced_cpus.push_back(traced.sim_cpu_s);
    spec_s.push_back(traced.spec_s);
    wire_s.push_back(traced.wire_s);
    analysis_s.push_back(traced.analysis_s);
    if (!canon) {
      counters = c;
      canon = std::move(traced);
    }
    const double elapsed = secs(start, Clock::now());
    if ((i + 1 >= 2 && elapsed >= a.seconds) || elapsed >= kMaxRunSeconds) break;
  }
  if (!canon) {
    Report{}.print(false, fc.attempted(), fc.failed());
    return 1;
  }
  (void)setup_probes(w, a.seed, &spec_s, &wire_s);

  const cs::ScenarioResult& res = *canon->result;
  const LayerProbes pr = run_probes(*canon->spec, probe_inputs(*canon->spec, canon->model), spans);
  const double T = canon->spec->duration.sec();
  double sent = 0.0;
  for (const auto& [id, s] : res.tracker.all()) sent += static_cast<double>(s.sent);
  double q_avg = 0.0;
  for (double q : res.mean_q_avg) q_avg += q / static_cast<double>(res.mean_q_avg.size());
  const auto& fl = res.fluid_stats;

  Report rep;
  rep.add("scenario.spec_s", perfbench::median(spec_s), "s");
  rep.add("scenario.wire_s", perfbench::median(wire_s), "s");
  add_layer_common(rep, counters, res.events_processed, pr);
  rep.add("sim.ns_per_event",
          1e9 * perfbench::median(traced_cpus) /
              static_cast<double>(std::max<std::uint64_t>(res.events_processed, 1)),
          "ns");
  rep.add("net.drops", static_cast<double>(res.total_data_drops), "count");
  rep.add("net.drop_ratio", sent > 0.0 ? static_cast<double>(res.total_data_drops) / sent : 0.0,
          "ratio");
  rep.add("net.bneck_qlen_mean", canon->qlen_mean, "packets");
  rep.add("qos.markers", static_cast<double>(res.markers_injected), "count");
  rep.add("qos.feedback_per_marker",
          res.markers_injected > 0 ? static_cast<double>(res.feedback_messages) /
                                         static_cast<double>(res.markers_injected)
                                   : 0.0,
          "ratio");
  rep.add("qos.q_avg_mean", q_avg, "packets");
  rep.add("csfq.core_flow_state", static_cast<double>(res.core_flow_state), "count");
  rep.add("stats.analysis_s", perfbench::median(analysis_s), "s");
  rep.add("runner.busy_frac", 0.0, "ratio");
  rep.add("runner.tail_s", 0.0, "s");
  rep.add("fluid.jumps", static_cast<double>(fl.jumps), "count");
  rep.add("fluid.ff_frac", T > 0.0 ? fl.fast_forwarded_sec / T : 0.0, "ratio");
  rep.add("fluid.cert_accept_ratio",
          fl.cert_attempts > 0
              ? static_cast<double>(fl.jumps) / static_cast<double>(fl.cert_attempts)
              : 0.0,
          "ratio");
  rep.add("telemetry.trace_overhead_pct",
          pct_change(perfbench::median(traced_cpus), perfbench::median(plain_cpus)), "%");
  spans.write(a.trace_file);
  rep.print(fc.failed() == 0, fc.attempted(), fc.failed());
  return 0;
}

int trace_sweep(const Workload& w, const Args& a) {
  perfbench::FailureCounter fc;
  Spans spans;
  const auto runs = rn::expand_grid(perfbench::sweep_grid(w, a.seed));
  const std::size_t jobs = sweep_jobs();
  std::vector<double> plain_cpus;
  std::vector<double> traced_cpus;
  double traced_wall = 0.0;
  std::vector<rn::RunResult> canon;
  sim::HotPathCounters counters{};
  double qlen_mean = 0.0;

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    // Alternate which of the pair goes first so warm-up favours neither.
    SweepRun plain;
    if (i % 2 == 1) plain = run_sweep(runs, jobs);
    sim::reset_hotpath_counters();
    QlenTally tally;
    const auto id = spans.begin("runner.sweep");
    SweepRun traced = run_sweep(runs, jobs, [&tally](net::Network&,
                                                     const std::vector<net::Link*>& b) {
      tally.attach(b);
    });
    spans.end(id);
    const sim::HotPathCounters c = sim::aggregated_hotpath_counters();
    if (i % 2 == 0) plain = run_sweep(runs, jobs);
    tally_sweep(fc, plain);
    plain_cpus.push_back(plain.cpu_s);
    tally_sweep(fc, traced);
    traced_cpus.push_back(traced.cpu_s);
    if (i == 0) {
      traced_wall = traced.wall_s;
      counters = c;
      qlen_mean = tally.mean();
      canon = std::move(traced.results);
    }
    const double elapsed = secs(start, Clock::now());
    if ((i + 1 >= 2 && elapsed >= a.seconds) || elapsed >= kMaxRunSeconds) break;
  }
  std::vector<double> spec_s;
  const std::vector<double> setups = sweep_setups(runs, 3, &spec_s);
  std::vector<double> wire_s;
  for (std::size_t i = 0; i < setups.size(); ++i) wire_s.push_back(setups[i] - spec_s[i]);

  std::vector<perfbench::RunSpan> spans_of_runs;
  std::uint64_t events = 0;
  double drops = 0.0;
  double delivered = 0.0;
  double worker_ms = 0.0;
  std::size_t csfq_state = 0;
  for (const auto& r : canon) {
    spans_of_runs.push_back({r.wall_start_ms, r.wall_ms, r.worker});
    events += r.events;
    drops += static_cast<double>(r.total_drops);
    delivered += static_cast<double>(r.delivered);
    worker_ms += r.wall_ms;
    if (r.desc.mechanism == cs::Mechanism::Csfq) {
      csfq_state = std::max(csfq_state, r.core_flow_state);
    }
  }
  // Probes use the paper chain of the grid's first run.
  const auto spec0 = rn::build_spec(runs.front());
  const LayerProbes pr =
      run_probes(*spec0, probe_inputs(*spec0, perfbench::paper_model(*spec0)), spans);

  Report rep;
  rep.add("scenario.spec_s", perfbench::median(spec_s), "s");
  rep.add("scenario.wire_s", perfbench::median(wire_s), "s");
  add_layer_common(rep, counters, events, pr);
  rep.add("sim.ns_per_event",
          1e6 * worker_ms / static_cast<double>(std::max<std::uint64_t>(events, 1)), "ns");
  rep.add("net.drops", drops, "count");
  rep.add("net.drop_ratio", drops + delivered > 0.0 ? drops / (drops + delivered) : 0.0, "ratio");
  rep.add("net.bneck_qlen_mean", qlen_mean, "packets");
  // The runner reports no marker or q_avg counts: the qos layer is
  // measured on paper-fig3-corelite.
  rep.add("qos.markers", 0.0, "count");
  rep.add("qos.feedback_per_marker", 0.0, "ratio");
  rep.add("qos.q_avg_mean", 0.0, "packets");
  rep.add("csfq.core_flow_state", static_cast<double>(csfq_state), "count");
  const auto an0 = Clock::now();
  (void)perfbench::analyse_sweep(canon);
  rep.add("stats.analysis_s", secs(an0, Clock::now()), "s");
  rep.add("runner.busy_frac", perfbench::busy_frac(spans_of_runs, jobs, 1000.0 * traced_wall),
          "ratio");
  rep.add("runner.tail_s", perfbench::tail_s(spans_of_runs), "s");
  rep.add("fluid.jumps", 0.0, "count");
  rep.add("fluid.ff_frac", 0.0, "ratio");
  rep.add("fluid.cert_accept_ratio", 0.0, "ratio");
  rep.add("telemetry.trace_overhead_pct",
          pct_change(perfbench::median(traced_cpus), perfbench::median(plain_cpus)), "%");
  spans.write(a.trace_file);
  rep.print(fc.failed() == 0, fc.attempted(), fc.failed());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  const Workload* w = args ? perfbench::find_workload(args->workload) : nullptr;
  if (w == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--revision TEXT] [--trace-file PATH]\nworkloads:");
    for (const Workload& x : perfbench::workloads()) std::fprintf(stderr, " %s", x.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %zu, "
              "\"jobs\": %zu, \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"revision\": \"%s\"}\n",
              w->name.c_str(), static_cast<unsigned long long>(args->seed), args->trace ? 1 : 0,
              cpu_count(), w->sweep ? sweep_jobs() : 1, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              json_escape(args->revision).c_str());
  try {
    if (w->sweep) return args->trace ? trace_sweep(*w, *args) : measure_sweep(*w, *args);
    return args->trace ? trace_single(*w, *args) : measure_single(*w, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
