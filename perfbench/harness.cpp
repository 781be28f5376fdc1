// Simulator benchmark harness: runs one named workload through
// core::OddciSystem's public API for a wall-clock budget, checks every
// repetition for correctness, and prints the metrics as one JSON line.
//
//   oddci_perfbench --workload wakeup_20k --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics (medians over the untraced
// repetitions); --trace 1 additionally runs one traced repetition (kernel
// profiler on, phase spans recorded and written to --spans) and prints the
// per-layer metrics. --smoke shrinks every workload to a tiny population
// and runs it through the same code path. The last stdout line is the
// result object; everything before it is provenance and the model
// decomposition for a human reader. Exit code 1 when a correctness check
// failed, 2 on a usage error.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytical/models.hpp"
#include "bench/bench_metrics.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "workload/job.hpp"

namespace {

using namespace oddci;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads ---------------------------------------------------------------

struct JobSpec {
  std::size_t tasks = 0;
  double task_seconds = 0.0;
  std::int64_t image_mb = 2;
  std::int64_t input_bytes = 512;
  std::int64_t result_bytes = 512;
};

struct Workload {
  std::string name;
  core::SystemConfig config;
  JobSpec job;
  std::size_t instance = 0;
  double deadline_hours = 24.0;
  /// Shard count of the measured (untraced) repetitions.
  std::size_t shards = 1;
  /// Shard count of the traced repetition. When it differs from `shards`,
  /// a traced run also repeats the workload untraced at this count, for
  /// shard_speedup and shard_makespan_drift against the measured K.
  std::size_t traced_shards = 1;
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = name;
  core::SystemConfig& c = w.config;
  c.seed = seed;
  if (name == "wakeup_20k") {
    // The paper's setting (naive heartbeats, fan-out fast path, no faults):
    // carousel fan-out and 20k heartbeating PNAs, instance 2% of receivers.
    // The 15% wakeup overshoot lets the instance form in the first carousel
    // cycle for every seed (at the default 1.0 about half the seeds fall
    // short and wait for a top-up), so that W is defined.
    c.receivers = smoke ? 2000 : 20000;
    c.channels = smoke ? 2 : 8;
    c.aggregators = smoke ? 4 : 16;
    c.control.overshoot_margin = 1.15;
    w.instance = smoke ? 100 : 400;
    w.job = {smoke ? 100u : 400u, 30.0};
  } else if (name == "verify_10k") {
    // examples/scenarios/byzantine_10pct.cfg: the defense under 10% forgers,
    // 5% free-riders and the wire/PNA fault matrix.
    c.receivers = smoke ? 2000 : 10000;
    c.channels = 4;
    c.aggregators = smoke ? 4 : 16;
    c.control.overshoot_margin = 1.3;
    fault::FaultOptions& f = c.fault;
    f.enabled = true;
    f.message_loss = 0.01;
    f.message_duplication = 0.01;
    f.latency_spike_probability = 0.005;
    f.pna_crashes_per_hour = 20;
    f.pna_hangs_per_hour = 10;
    f.byzantine_forger_fraction = 0.10;
    f.byzantine_freerider_fraction = 0.05;
    f.byzantine_collusion_size = 3;
    core::VerifyOptions& v = c.verify;
    v.enabled = true;
    v.redundancy = 2;
    v.spot_check_rate = 0.02;
    v.min_observations = 6;
    v.ewma_alpha = 0.3;
    v.parole_failure_limit = 2;
    w.instance = smoke ? 100 : 2000;
    w.job = {smoke ? 500u : 5000u, 5.0};
  } else if (name == "churn_10k") {
    // Churning population under light wire faults with the O(changes)
    // return channel. Measured at K=1: on a host that steals vCPU time, the
    // K=2 barrier windows stall for seconds and K=2 wall varies up to 3x
    // between runs of one seed. The traced run adds K=2, where barriers,
    // mailboxes and clamping are profiled against the K=1 reference.
    c.receivers = smoke ? 3000 : 10000;
    c.channels = 4;
    c.aggregators = smoke ? 4 : 16;
    c.churn = core::ChurnOptions{};
    c.churn->mean_on_seconds = 1800;
    c.churn->mean_off_seconds = 600;
    c.fault.enabled = true;
    c.fault.message_loss = 0.01;
    c.fault.message_duplication = 0.01;
    c.fault.pna_crashes_per_hour = 10;
    c.heartbeat.mode = core::HeartbeatMode::kDelta;
    c.heartbeat.paced = true;
    c.return_channel.enabled = true;
    w.traced_shards = 2;
    w.instance = smoke ? 100 : 400;
    w.job = {smoke ? 500u : 2400u, 10.0};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (w.traced_shards < w.shards) w.traced_shards = w.shards;
  c.shards = w.shards;
  return w;
}

workload::Job make_job(const Workload& w) {
  return workload::make_uniform_job(
      w.name, util::Bits::from_megabytes(w.job.image_mb), w.job.tasks,
      util::Bits::from_bytes(w.job.input_bytes),
      util::Bits::from_bytes(w.job.result_bytes), w.job.task_seconds);
}

// --- memory probes -----------------------------------------------------------

double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

// --- phase spans (traced repetition only) ------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), seconds_since(epoch_), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = seconds_since(epoch_); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- one repetition ----------------------------------------------------------

struct Rep {
  std::uint64_t seed = 0;
  std::size_t shards = 1;
  double setup_s = 0.0;
  double deploy_s = 0.0;
  double job_s = 0.0;
  double teardown_s = 0.0;
  double sim_seconds = 0.0;  ///< simulated clock at job end (deploy + job)
  double rss_before = 0.0;
  double rss_setup = 0.0;
  double rss_end = 0.0;
  core::RunResult result;
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t clamped_posts = 0;
  double monitor_wall_s = 0.0;
  std::uint64_t report_bytes_ingested = 0;
  std::uint64_t delta_frames_received = 0;
  std::optional<core::Verifier::Stats> verify;
  std::optional<obs::ProfileSnapshot> profile;
  std::vector<double> controller_backlog;  ///< sampled backlog seconds
  // correctness
  bool completed = false;
  bool health_ok = false;
  std::uint64_t wrong_results = 0;
  std::uint64_t tasks_not_done = 0;

  [[nodiscard]] double run_wall_s() const { return deploy_s + job_s; }
  [[nodiscard]] double sim_hour_wall_s() const {
    return run_wall_s() / (sim_seconds / 3600.0);
  }
};

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    for (const char ch : s) {
      h_ ^= static_cast<unsigned char>(ch);
      h_ *= 1099511628211ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Seeded outcome fingerprint: simulated counters, gauges and histograms,
/// kernel event accounting, and the paper-level outputs W, M and E.
std::uint64_t fingerprint(const Rep& r, double efficiency) {
  Fingerprint f;
  f.add(r.events);
  f.add(r.cancelled);
  f.add(r.sim_seconds);
  f.add(r.result.wakeup_seconds);
  f.add(r.result.makespan_seconds);
  f.add(efficiency);
  f.add(static_cast<std::uint64_t>(r.result.completed));
  f.add(static_cast<std::uint64_t>(r.result.final_instance_size));
  for (const auto& c : r.result.metrics.counters) {
    f.add(c.name);
    f.add(c.value);
  }
  for (const auto& g : r.result.metrics.gauges) {
    f.add(g.name);
    f.add(g.value);
  }
  for (const auto& h : r.result.metrics.histograms) {
    f.add(h.name);
    f.add(h.count);
    f.add(h.sum);
    for (const auto b : h.buckets) f.add(b);
  }
  return f.value();
}

struct Model {
  double wakeup_s = 0.0;      ///< 1.5 * I / beta
  double task_cycle_s = 0.0;  ///< (s + r) / delta + p
  double makespan_s = 0.0;
  double p_seconds = 0.0;
};

Model model_of(const Workload& w, const workload::Job& job) {
  const core::SystemConfig& c = w.config;
  analytical::SystemModel sm{c.beta, c.delta};
  analytical::JobModel jm;
  jm.n = job.task_count();
  jm.s_bits = job.avg_input_bits();
  jm.r_bits = job.avg_result_bits();
  jm.p_seconds =
      job.avg_reference_seconds() * c.profile.slowdown(c.initial_power);
  jm.image = job.image_size;
  Model m;
  m.wakeup_s = analytical::wakeup_seconds(job.image_size, c.beta);
  m.task_cycle_s = (jm.s_bits + jm.r_bits) / c.delta.bps() + jm.p_seconds;
  m.makespan_s = analytical::makespan_seconds(sm, jm, w.instance);
  m.p_seconds = jm.p_seconds;
  return m;
}

Rep run_rep(const Workload& w, std::uint64_t seed, std::size_t shards,
            bool profiled, SpanLog* spans) {
  core::SystemConfig config = w.config;
  config.seed = seed;
  config.shards = shards;
  config.obs.profile = profiled;
  const workload::Job job = make_job(w);
  Rep rep;
  rep.seed = seed;
  rep.shards = shards;
  const int root = spans ? spans->open("rep", -1) : -1;

  rep.rss_before = rss_bytes();
  auto t = Clock::now();
  int span = spans ? spans->open("setup", root) : -1;
  auto system = std::make_unique<core::OddciSystem>(config);
  rep.setup_s = seconds_since(t);
  if (spans) spans->close(span);
  rep.rss_setup = rss_bytes();

  core::OddciSystem& sys = *system;
  // Traced repetition only: sample the Controller's return-channel backlog
  // every simulated second from the kernel's read-only progress hook.
  if (profiled && config.return_channel.enabled) {
    sys.kernel().set_progress(
        [&rep, &sys] {
          rep.controller_backlog.push_back(sys.network().downlink_backlog_seconds(
              sys.controller().node_id()));
        },
        sim::SimTime::from_seconds(1));
  }

  t = Clock::now();
  span = spans ? spans->open("deploy", root) : -1;
  sys.controller().deploy_pna();
  sys.kernel().run_until(sys.simulation().now() + config.warmup);
  rep.deploy_s = seconds_since(t);
  if (spans) spans->close(span);

  t = Clock::now();
  span = spans ? spans->open("job", root) : -1;
  rep.result = sys.run_job(job, w.instance,
                           sim::SimTime::from_hours(w.deadline_hours));
  rep.job_s = seconds_since(t);
  if (spans) spans->close(span);
  rep.rss_end = rss_bytes();

  rep.sim_seconds = sys.simulation().now().seconds();
  sim::ShardedSimulation& kernel = sys.kernel();
  rep.events = kernel.events_executed();
  for (std::size_t i = 0; i < kernel.shard_count(); ++i) {
    rep.cancelled += kernel.shard(i).events_cancelled();
  }
  rep.windows = kernel.windows_run();
  rep.cross_posts = kernel.cross_posts();
  rep.clamped_posts = kernel.clamped_posts();
  rep.monitor_wall_s = sys.controller().monitor_wall_seconds();
  rep.report_bytes_ingested = sys.controller().report_bytes_ingested();
  rep.delta_frames_received = sys.controller().delta_stats().frames_received;
  if (const core::Verifier* v = sys.verifier()) rep.verify = v->stats();
  if (const obs::KernelProfiler* p = sys.profiler()) {
    rep.profile = obs::take_profile(*p, kernel);
  }

  const core::RunResult& r = rep.result;
  rep.completed = r.admitted && r.completed;
  rep.health_ok = r.health.ok();
  rep.wrong_results = rep.verify ? rep.verify->wrong_results : 0;
  rep.tasks_not_done =
      rep.completed ? r.job.tasks_failed : static_cast<std::uint64_t>(job.task_count());
  const Model m = model_of(w, job);
  rep.fingerprint = fingerprint(
      rep, r.efficiency(job.task_count(), m.p_seconds, w.instance));

  t = Clock::now();
  span = spans ? spans->open("teardown", root) : -1;
  system.reset();
  rep.teardown_s = seconds_since(t);
  if (spans) spans->close(span);
  if (spans) spans->close(root);
  malloc_trim(0);  // next repetition's memory deltas start from a settled heap
  return rep;
}

// --- statistics and output ---------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F f) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(f(r));
  return out;
}

double hist_q(const core::RunResult& r, std::string_view name, double q) {
  const auto* h = r.metrics.find_histogram(name);
  return h ? obs::histogram_quantile(*h, q) : 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " +
             num(entries_[i].value) + ", \"unit\": \"" + entries_[i].unit +
             "\"}";
    }
    return out + "}";
  }
  void print_table(std::ostream& os) const {
    for (const auto& e : entries_) {
      os << "  " << e.name << " = " << num(e.value) << " " << e.unit << "\n";
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string provenance_json(const Workload& w, std::uint64_t seed,
                            double seconds, bool trace, bool smoke) {
  const core::SystemConfig& c = w.config;
  std::ostringstream os;
  os << "{\"provenance\": {\"workload\": \"" << w.name << "\", \"seed\": "
     << seed << ", \"shards\": " << w.shards << ", \"traced_shards\": "
     << w.traced_shards << ", \"seconds\": " << seconds
     << ", \"trace\": " << (trace ? 1 : 0) << ", \"smoke\": "
     << (smoke ? "true" : "false") << ", \"params\": {\"receivers\": "
     << c.receivers << ", \"channels\": " << c.channels
     << ", \"aggregators\": " << c.aggregators << ", \"instance\": "
     << w.instance << ", \"tasks\": " << w.job.tasks
     << ", \"task_seconds\": " << num(w.job.task_seconds)
     << ", \"image_mb\": " << w.job.image_mb << ", \"input_bytes\": "
     << w.job.input_bytes << ", \"result_bytes\": " << w.job.result_bytes
     << ", \"beta_bps\": " << num(c.beta.bps()) << ", \"delta_bps\": "
     << num(c.delta.bps()) << ", \"warmup_s\": " << num(c.warmup.seconds())
     << ", \"heartbeat_mode\": \""
     << (c.heartbeat.mode == core::HeartbeatMode::kDelta ? "delta" : "naive")
     << "\", \"heartbeat_paced\": " << (c.heartbeat.paced ? "true" : "false")
     << ", \"return_channel\": " << (c.return_channel.enabled ? "true" : "false")
     << ", \"fanout_fast_path\": " << (c.fanout_fast_path ? "true" : "false")
     << ", \"churn\": " << (c.churn ? "true" : "false")
     << ", \"fault\": " << (c.fault.enabled ? "true" : "false")
     << ", \"verify\": " << (c.verify.enabled ? "true" : "false")
     << "}, \"host\": " << bench::host_json() << ", \"build\": {\"compiler\": \""
     << json_escape(PERFBENCH_COMPILER) << "\", \"flags\": \""
     << json_escape(PERFBENCH_FLAGS) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"git_describe\": \""
     << json_escape(PERFBENCH_GIT_DESCRIBE) << "\"}}}";
  return os.str();
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"schema\": \"perfbench.spans.v1\", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
        << spans[i].name << "\", \"start_s\": " << num(spans[i].start_s)
        << ", \"end_s\": " << num(spans[i].end_s)
        << ", \"parent\": " << spans[i].parent << "}";
  }
  out << "\n]}\n";
}

constexpr std::size_t kMinReps = 5;
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 31;

/// Sub-seed `j` of `seed`: `seed` itself for j = 0, else a splitmix64 mix,
/// so that the sub-seeds of neighbouring seeds do not overlap.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  if (j == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(j);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  try {
    args = parse_args(argc, argv);
    w = make_workload(args.workload, args.seed, args.smoke);
    w.config.validate();
  } catch (const std::exception& e) {
    std::cerr << "oddci_perfbench: " << e.what() << "\n"
              << "usage: oddci_perfbench --workload <wakeup_20k|verify_10k|"
                 "churn_10k> --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--spans PATH]\n";
    return 2;
  }
  std::cout << provenance_json(w, args.seed, args.seconds, args.trace,
                               args.smoke)
            << std::endl;

  const workload::Job job = make_job(w);
  const Model model = model_of(w, job);
  const auto tasks = static_cast<double>(job.task_count());
  const bool compare = args.trace && w.traced_shards != w.shards;

  // Untraced repetitions of the measured shard count (plus, in traced mode
  // when the traced shard count differs, one at that count each time)
  // until the next one would, at the median pace so far, overrun the
  // budget. The untraced mode gives each repetition its own sub-seed of
  // --seed, so that one draw of churn, faults and forgers does not set the
  // run's medians, and always makes kMinReps, so that one repetition
  // stalled by a busy host neither sets a median nor cuts the run short.
  // It keeps one pace in hand for a last repetition of --seed itself, whose
  // fingerprint must match the first's. The traced mode runs --seed only,
  // so that its per-layer figures and the K=2 comparison describe one seed.
  std::vector<Rep> reps;
  std::vector<Rep> alt_reps;
  const auto start = Clock::now();
  const std::size_t min_reps = args.trace ? 1 : kMinReps;
  const double reserve = args.trace ? 0.0 : 1.0;
  std::vector<double> paces;
  double peak_rss = 0.0;
  do {
    const auto t = Clock::now();
    const std::uint64_t seed = args.trace ? args.seed : sub_seed(args.seed, reps.size());
    reps.push_back(run_rep(w, seed, w.shards, false, nullptr));
    // The first repetition runs in a fresh process: its peak is the
    // workload's own, before later repetitions add heap fragmentation.
    if (reps.size() == 1) peak_rss = peak_rss_bytes();
    if (compare) alt_reps.push_back(run_rep(w, seed, w.traced_shards, false, nullptr));
    paces.push_back(seconds_since(t));
  } while (reps.size() < min_reps ||
           seconds_since(start) + (1.0 + reserve) * median(paces) <= args.seconds);
  if (!args.trace) reps.push_back(run_rep(w, args.seed, w.shards, false, nullptr));

  // Untraced mode: top up the set-up samples with set-up-only repetitions
  // (construct, then destroy) while the budget lasts; setup_s is the median
  // over these and the measured repetitions' own set-ups.
  std::vector<double> setups = collect(reps, [](const Rep& r) { return r.setup_s; });
  double cycle = 0.0;
  while (!args.trace &&
         (setups.size() < kMinSetups ||
          (setups.size() < kMaxSetups && seconds_since(start) + cycle <= args.seconds))) {
    const auto t = Clock::now();
    auto system = std::make_unique<core::OddciSystem>(w.config);
    setups.push_back(seconds_since(t));
    system.reset();
    malloc_trim(0);
    cycle = std::max(cycle, seconds_since(t));
  }

  std::optional<Rep> traced;
  std::vector<Span> span_list;
  if (args.trace) {
    SpanLog spans(Clock::now());
    traced = run_rep(w, args.seed, w.traced_shards, true, &spans);
    span_list = spans.spans();
  }

  // Correctness gate, per repetition: job completed, health ok, no wrong
  // result accepted, fingerprint identical across repetitions of one
  // (sub-seed, K) — the traced repetition included. A failed repetition
  // counts all its tasks as failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  auto gate = [&](const Rep& r, std::uint64_t expected_fp, const char* label) {
    std::vector<std::string> why;
    if (!r.completed) why.push_back("job not completed");
    if (!r.health_ok) why.push_back("health " + std::string(obs::to_string(r.result.health.worst())));
    if (r.wrong_results > 0) why.push_back(std::to_string(r.wrong_results) + " wrong results accepted");
    if (r.fingerprint != expected_fp) why.push_back("outcome fingerprint differs across repetitions");
    attempted += job.task_count();
    if (why.empty()) {
      failed += r.tasks_not_done;
      return;
    }
    correct = false;
    failed += job.task_count();
    std::cerr << "correctness: " << label << " (K=" << r.shards << "): ";
    for (std::size_t i = 0; i < why.size(); ++i) std::cerr << (i ? "; " : "") << why[i];
    std::cerr << "\n";
  };
  // Fingerprint of the first repetition of r's sub-seed in `of`.
  auto expected = [](const std::vector<Rep>& of, const Rep& r) {
    return std::find_if(of.begin(), of.end(), [&r](const Rep& x) { return x.seed == r.seed; })
        ->fingerprint;
  };
  for (const Rep& r : reps) gate(r, expected(reps, r), "repetition");
  for (const Rep& r : alt_reps) gate(r, expected(alt_reps, r), "repetition");
  // The traced repetition's untraced twin: same seed and shard count.
  const std::vector<Rep>& twins = compare ? alt_reps : reps;
  const bool traced_matches = !traced || traced->fingerprint == twins.front().fingerprint;
  if (traced) gate(*traced, twins.front().fingerprint, "traced repetition");

  const Rep& first = reps.front();
  const double receivers = static_cast<double>(w.config.receivers);
  const double sim_hour_wall = median(collect(reps, [](const Rep& r) { return r.sim_hour_wall_s(); }));
  const double W = first.result.wakeup_seconds;
  const double M = first.result.makespan_seconds;

  std::cout << "repetitions (K=" << w.shards << "): seed";
  for (const Rep& r : reps) std::cout << " " << r.seed;
  std::cout << " | sim_hour_wall_s";
  for (const Rep& r : reps) std::cout << " " << num(r.sim_hour_wall_s());
  std::cout << " | W_s";
  for (const Rep& r : reps) std::cout << " " << num(r.result.wakeup_seconds);
  std::cout << " | M_s";
  for (const Rep& r : reps) std::cout << " " << num(r.result.makespan_seconds);
  std::cout << " | events";
  for (const Rep& r : reps) std::cout << " " << r.events;
  std::cout << " | setup_s";
  for (const double v : setups) std::cout << " " << num(v);
  std::cout << "\n";

  // Model decomposition for the reader: simulated layer latencies next to
  // the analytical terms they should reproduce.
  std::cout << "model decomposition (" << w.name << ", seed " << args.seed
            << ", K=" << w.shards << ", " << reps.size() << " repetitions):\n"
            << "  wakeup     W sim " << num(W) << " s | model 1.5*I/beta "
            << num(model.wakeup_s) << " s | acquire p50/p99 "
            << num(hist_q(first.result, "pna.acquire_latency_seconds", 0.5)) << "/"
            << num(hist_q(first.result, "pna.acquire_latency_seconds", 0.99))
            << " s | join p50/p99 "
            << num(hist_q(first.result, "controller.join_latency_seconds", 0.5)) << "/"
            << num(hist_q(first.result, "controller.join_latency_seconds", 0.99)) << " s\n"
            << "  task cycle sim p50/p99 "
            << num(hist_q(first.result, "backend.task_cycle_seconds", 0.5)) << "/"
            << num(hist_q(first.result, "backend.task_cycle_seconds", 0.99))
            << " s | model (s+r)/delta+p " << num(model.task_cycle_s) << " s\n"
            << "  makespan   M sim " << num(M) << " s | model " << num(model.makespan_s) << " s\n";

  Metrics out;
  if (!args.trace) {
    out.add("sim_hour_wall_s", sim_hour_wall, "s/sim_h");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_bytes_per_receiver", peak_rss / receivers, "B");
    out.add("dispatches_per_task",
            median(collect(reps, [](const Rep& r) { return static_cast<double>(r.result.job.assignments); })) / tasks,
            "ratio");
  } else {
    const Rep& t = *traced;
    const core::RunResult& r = t.result;
    const obs::MetricsSnapshot& s = r.metrics;
    auto counter = [&s](std::string_view n) { return static_cast<double>(s.counter_value(n)); };
    const obs::ProfileSnapshot prof = t.profile.value_or(obs::ProfileSnapshot{});
    const double execute = prof.execute_seconds_total();
    const double barrier = prof.barrier_seconds_total();
    const double tasks_done =
        t.verify ? static_cast<double>(t.verify->tasks_verified)
                 : tasks - static_cast<double>(t.tasks_not_done);

    // Model fidelity of the traced repetition: -1 when the instance never
    // reached its target size (W undefined) or the job never finished (M
    // undefined).
    const double tw = r.wakeup_seconds;
    const double tm = r.makespan_seconds;
    out.add("wakeup_model_error", tw >= 0.0 ? std::abs(tw - model.wakeup_s) / model.wakeup_s : -1.0, "ratio");
    out.add("makespan_model_error", tm >= 0.0 ? std::abs(tm - model.makespan_s) / model.makespan_s : -1.0, "ratio");
    out.add("task_failure_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
    double drift = 0.0;
    double speedup = 0.0;
    if (compare) {
      drift = std::abs(t.result.makespan_seconds - M) / M;
      speedup = sim_hour_wall / median(collect(alt_reps, [](const Rep& x) { return x.sim_hour_wall_s(); }));
    }
    out.add("shard_makespan_drift", drift, "ratio");
    out.add("shard_speedup", speedup, "ratio");

    out.add("phase.setup_s", t.setup_s, "s");
    out.add("phase.deploy_s", t.deploy_s, "s");
    out.add("phase.job_s", t.job_s, "s");
    out.add("phase.teardown_s", t.teardown_s, "s");

    out.add("sim.events", static_cast<double>(t.events), "count");
    out.add("sim.events_per_s", ratio(static_cast<double>(t.events), t.run_wall_s()), "1/s");
    out.add("sim.cancelled", static_cast<double>(t.cancelled), "count");
    out.add("sim.execute_s", execute, "s");
    out.add("sim.barrier_s", barrier, "s");
    out.add("sim.drain_s", prof.drain_seconds, "s");
    out.add("sim.barrier_share", ratio(barrier, execute + barrier), "ratio");
    out.add("sim.imbalance_mean", prof.imbalance_mean, "ratio");
    out.add("sim.windows", static_cast<double>(t.windows), "count");
    out.add("sim.cross_posts", static_cast<double>(t.cross_posts), "count");
    out.add("sim.clamped_posts", static_cast<double>(t.clamped_posts), "count");
    out.add("sim.clamped_ratio", ratio(static_cast<double>(t.clamped_posts), static_cast<double>(t.cross_posts)), "ratio");

    out.add("broadcast.announcements", counter("broadcast.announcements"), "count");
    out.add("broadcast.verify_cache_hit_ratio",
            ratio(counter("verify_cache.hit"), counter("verify_cache.hit") + counter("verify_cache.miss")), "ratio");
    out.add("broadcast.acquire_p50_sim_s", hist_q(r, "pna.acquire_latency_seconds", 0.5), "sim_s");
    out.add("broadcast.acquire_p99_sim_s", hist_q(r, "pna.acquire_latency_seconds", 0.99), "sim_s");

    out.add("net.messages_sent", static_cast<double>(r.network.messages_sent), "count");
    out.add("net.bytes_sent", static_cast<double>(r.network.bits_sent) / 8.0, "B");
    out.add("net.delivery_ratio",
            ratio(static_cast<double>(r.network.messages_delivered), static_cast<double>(r.network.messages_sent)), "ratio");
    out.add("net.controller_backlog_p99_s", quantile(t.controller_backlog, 0.99), "sim_s");

    out.add("pna.heartbeats_sent", counter("pna.heartbeats_sent"), "count");
    out.add("pna.joins", counter("pna.joins"), "count");
    out.add("pna.heartbeat_pool_reuse_ratio",
            ratio(counter("heartbeat.pool_reused"), counter("heartbeat.pool_reused") + counter("heartbeat.pool_allocated")), "ratio");
    out.add("mem.setup_bytes_per_receiver", (first.rss_setup - first.rss_before) / receivers, "B");
    out.add("mem.run_growth_bytes_per_receiver", (first.rss_end - first.rss_setup) / receivers, "B");

    out.add("controller.monitor_wall_s", t.monitor_wall_s, "s");
    out.add("controller.report_bytes_ingested", static_cast<double>(t.report_bytes_ingested), "B");
    out.add("controller.reports_received",
            static_cast<double>(r.controller.heartbeats_received + r.controller.aggregate_reports_received +
                                t.delta_frames_received),
            "count");
    out.add("controller.join_p50_sim_s", hist_q(r, "controller.join_latency_seconds", 0.5), "sim_s");
    out.add("controller.join_p99_sim_s", hist_q(r, "controller.join_latency_seconds", 0.99), "sim_s");
    out.add("controller.unicast_resets", static_cast<double>(r.controller.unicast_resets), "count");
    out.add("controller.recompositions", static_cast<double>(r.controller.recompositions), "count");

    out.add("backend.assignments", static_cast<double>(r.job.assignments), "count");
    out.add("verify.useful_dispatch_ratio", ratio(tasks_done, static_cast<double>(r.job.assignments)), "ratio");
    out.add("verify.escalations", t.verify ? static_cast<double>(t.verify->escalations) : 0.0, "count");
    out.add("verify.outvoted_votes", t.verify ? static_cast<double>(t.verify->outvoted) : 0.0, "count");
    out.add("verify.spot_dispatches", t.verify ? static_cast<double>(t.verify->spot_dispatched) : 0.0, "count");
    out.add("backend.task_cycle_p50_sim_s", hist_q(r, "backend.task_cycle_seconds", 0.5), "sim_s");
    out.add("backend.task_cycle_p99_sim_s", hist_q(r, "backend.task_cycle_seconds", 0.99), "sim_s");

    out.add("outcome.wakeup_s", r.wakeup_seconds, "sim_s");
    out.add("outcome.makespan_s", r.makespan_seconds, "sim_s");
    out.add("outcome.traced_matches_untraced", traced_matches ? 1.0 : 0.0, "bool");

    const double wall_median = median(collect(twins, [](const Rep& x) { return x.run_wall_s(); }));
    out.add("obs.trace_overhead_pct", 100.0 * (t.run_wall_s() - wall_median) / wall_median, "%");
    if (!args.spans_path.empty()) write_spans(args.spans_path, span_list);
  }
  out.print_table(std::cout);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << out.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
