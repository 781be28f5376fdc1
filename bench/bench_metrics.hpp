#pragma once

#include <unistd.h>

#include <iostream>
#include <string>
#include <thread>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

/// Shared metrics-file emission for the bench binaries. Each bench captures
/// one representative run's MetricsSnapshot and writes it next to its stdout
/// tables — `<bench>_metrics.json` (full snapshot, schema oddci.metrics.v2)
/// plus `<bench>_series.csv` (time series only, long format) — so the
/// exporter wiring is exercised on every bench run and the trajectory has
/// machine-readable output. Pass `--no-metrics` to suppress the files.
namespace oddci::bench {

/// One-line JSON host descriptor shared by every BENCH_*.json writer —
/// wall-clock numbers only mean anything relative to the machine that
/// produced them, so each file records it next to the measurements.
inline std::string host_json() {
  std::string out = "{\"hardware_concurrency\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"page_size\": ";
  out += std::to_string(sysconf(_SC_PAGESIZE));
  out += ", \"os\": \"";
#if defined(__linux__)
  out += "linux";
#elif defined(__APPLE__)
  out += "darwin";
#else
  out += "unknown";
#endif
  out += "\"}";
  return out;
}

inline bool metrics_enabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-metrics") return false;
  }
  return true;
}

/// Write `<stem>_metrics.json` and `<stem>_series.csv` from `snapshot`.
/// An empty snapshot (obs disabled or the capture run never executed) is
/// still written: the schema header alone is useful to the trajectory.
inline void write_metrics(const std::string& stem,
                          const obs::MetricsSnapshot& snapshot) {
  const std::string json_path = stem + "_metrics.json";
  const std::string csv_path = stem + "_series.csv";
  obs::write_json(json_path, snapshot);
  obs::write_series_csv(csv_path, snapshot);
  std::cout << "\nwrote " << json_path << " (" << snapshot.counters.size()
            << " counters, " << snapshot.series.size() << " series) and "
            << csv_path << "\n";
}

}  // namespace oddci::bench
