#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

/// Snapshot exporters. The JSON form (`oddci.metrics.v2`) is the machine
/// interface — a single object holding every counter, gauge, histogram
/// and series; doubles are printed with %.17g so a parsed-back
/// snapshot compares bit-identical to the original. The CSV form is a
/// long-format table of the time series only (series,time,value rows),
/// for spreadsheet/plotting workflows.
namespace oddci::obs {

inline constexpr std::string_view kMetricsSchema = "oddci.metrics.v2";

[[nodiscard]] std::string to_json(const MetricsSnapshot& snap);
void write_json(const std::string& path, const MetricsSnapshot& snap);

/// Parse a snapshot back from its JSON form. Throws std::runtime_error on
/// malformed input or a schema mismatch.
[[nodiscard]] MetricsSnapshot snapshot_from_json(std::string_view json);
[[nodiscard]] MetricsSnapshot read_json(const std::string& path);

/// Time series only, long format: header `series,time,value`.
[[nodiscard]] std::string series_to_csv(const MetricsSnapshot& snap);
void write_series_csv(const std::string& path, const MetricsSnapshot& snap);

/// Parse series back from the long-format CSV (times/values only; the
/// dropped counts are not part of the CSV form).
[[nodiscard]] std::vector<SeriesSample> series_from_csv(std::string_view csv);

}  // namespace oddci::obs
