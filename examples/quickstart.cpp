// Quickstart: instantiate an OddCI-DTV system, run one bag-of-tasks job on
// an on-demand instance, and compare the measured wakeup/makespan with the
// paper's analytical model.
//
// Usage: quickstart [receivers] [instance_size] [tasks] [metrics.json]
//                   [trace.json]
//
// When a fourth argument is given, the run's full MetricsSnapshot (counters,
// latency histograms, sampled time series) is exported there as
// oddci.metrics.v2 JSON. A fifth argument switches the causal flight
// recorder on and exports the recorded protocol hops there as Chrome trace
// JSON (open in https://ui.perfetto.dev or chrome://tracing; inspect with
// examples/oddci_trace).

#include <cstdlib>
#include <iostream>

#include "analytical/models.hpp"
#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/trace_export.hpp"
#include "util/table.hpp"
#include "workload/job.hpp"

int main(int argc, char** argv) {
  using namespace oddci;

  const std::size_t receivers =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500;
  const std::size_t instance_size =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100;
  const std::size_t tasks =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000;
  const char* metrics_path = argc > 4 ? argv[4] : nullptr;
  const char* trace_path = argc > 5 ? argv[5] : nullptr;

  // System: beta = 1 Mbps of unused broadcast capacity, delta = 150 Kbps
  // ADSL-class return channels — the paper's Section 5.2 reference values.
  core::SystemConfig config;
  config.receivers = receivers;
  config.beta = util::BitRate::from_mbps(1.0);
  config.delta = util::BitRate::from_kbps(150.0);
  config.seed = 7;
  config.obs.trace = trace_path != nullptr;

  core::OddciSystem system(config);

  // Job: 10 MB image, `tasks` independent tasks of 30 s each on the
  // reference device, 512-byte input and 512-byte result per task.
  workload::Job job = workload::make_uniform_job(
      "quickstart", util::Bits::from_megabytes(10), tasks,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 30.0);

  std::cout << "OddCI quickstart\n"
            << "  receivers:     " << receivers << "\n"
            << "  instance size: " << instance_size << "\n"
            << "  tasks:         " << tasks << " x "
            << job.tasks.front().reference_seconds << " s\n"
            << "  image:         " << job.image_size.to_string() << " @ beta "
            << config.beta.to_string() << "\n\n";

  core::RunResult result = system.run_job(job, instance_size);

  analytical::SystemModel model{config.beta, config.delta};
  analytical::JobModel jm;
  jm.n = job.task_count();
  jm.s_bits = job.avg_input_bits();
  jm.r_bits = job.avg_result_bits();
  jm.p_seconds = job.avg_reference_seconds();
  jm.image = job.image_size;

  const double w_model = analytical::wakeup_seconds(job.image_size, config.beta);
  const double m_model = analytical::makespan_seconds(model, jm, instance_size);
  const double e_model = analytical::efficiency(model, jm, instance_size);
  const double e_measured = result.efficiency(
      job.task_count(), job.avg_reference_seconds(), instance_size);

  util::Table table({"metric", "analytical", "measured"});
  table.add_row({"wakeup W (s)", util::Table::fmt(w_model, 1),
                 util::Table::fmt(result.wakeup_seconds, 1)});
  table.add_row({"makespan M (s)", util::Table::fmt(m_model, 1),
                 util::Table::fmt(result.makespan_seconds, 1)});
  table.add_row({"efficiency E", util::Table::fmt(e_model, 3),
                 util::Table::fmt(e_measured, 3)});
  table.print(std::cout);

  std::cout << "\n  tasks done:      " << result.job.results_received << "/"
            << tasks << (result.completed ? " (complete)" : " (INCOMPLETE)")
            << "\n  assignments:     " << result.job.assignments
            << "\n  wakeup bcasts:   " << result.controller.wakeup_broadcasts
            << "\n  heartbeats:      " << result.controller.heartbeats_received
            << "\n  direct messages: " << result.network.messages_delivered
            << "\n";

  // The same counters — and much more (histograms, series) — are in
  // the registry-backed snapshot the run returned.
  if (metrics_path != nullptr) {
    obs::write_json(metrics_path, result.metrics);
    std::cout << "\n  wrote " << metrics_path << " ("
              << result.metrics.counters.size() << " counters, "
              << result.metrics.series.size() << " series, "
              << result.metrics.histograms.size() << " histograms)\n";
  }
  if (trace_path != nullptr) {
    const obs::FlightRecorder& recorder = *system.flight_recorder();
    obs::write_chrome_trace(trace_path, recorder);
    std::cout << "  wrote " << trace_path << " (" << recorder.size()
              << " events retained, " << recorder.overwritten()
              << " overwritten)\n";
  }
  return result.completed ? 0 : 1;
}
