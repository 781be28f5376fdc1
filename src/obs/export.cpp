#include "obs/export.hpp"

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "obs/json.hpp"

namespace oddci::obs {

namespace {

using json::append_double;
using json::append_string;
using json::append_u64;
using json::member;
using json::read_file;
using json::write_file;

template <typename T, typename Append>
void append_array(std::string& out, const std::vector<T>& items,
                  Append&& append_item) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    append_item(out, items[i]);
  }
  out += ']';
}

std::vector<double> double_array(const json::Value& value) {
  const json::Array& arr = value.as_array();
  std::vector<double> out;
  out.reserve(arr.size());
  for (const auto& v : arr) out.push_back(v.as_double());
  return out;
}

}  // namespace

// --- JSON -------------------------------------------------------------------

std::string to_json(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":";
  append_string(out, kMetricsSchema);
  out += ",\"taken_at_seconds\":";
  append_double(out, snap.taken_at_seconds);

  out += ",\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) out += ',';
    append_string(out, snap.counters[i].name);
    out += ':';
    append_u64(out, snap.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) out += ',';
    append_string(out, snap.gauges[i].name);
    out += ':';
    append_double(out, snap.gauges[i].value);
  }

  out += "},\"histograms\":";
  append_array(out, snap.histograms,
               [](std::string& o, const HistogramSample& h) {
                 o += "{\"name\":";
                 append_string(o, h.name);
                 o += ",\"min_value\":";
                 append_double(o, h.min_value);
                 o += ",\"count\":";
                 append_u64(o, h.count);
                 o += ",\"sum\":";
                 append_double(o, h.sum);
                 o += ",\"min\":";
                 append_double(o, h.min);
                 o += ",\"max\":";
                 append_double(o, h.max);
                 // Quantiles are derived from the buckets at export time
                 // (not parsed back), so re-exporting a parsed snapshot
                 // recomputes byte-identical values.
                 o += ",\"p50\":";
                 append_double(o, histogram_quantile(h, 0.50));
                 o += ",\"p90\":";
                 append_double(o, histogram_quantile(h, 0.90));
                 o += ",\"p99\":";
                 append_double(o, histogram_quantile(h, 0.99));
                 // Sparse bucket encoding: only non-empty buckets.
                 o += ",\"bucket_count\":";
                 append_u64(o, h.buckets.size());
                 o += ",\"buckets\":[";
                 bool first = true;
                 for (std::size_t i = 0; i < h.buckets.size(); ++i) {
                   if (h.buckets[i] == 0) continue;
                   if (!first) o += ',';
                   first = false;
                   o += "[";
                   append_u64(o, i);
                   o += ',';
                   append_u64(o, h.buckets[i]);
                   o += ']';
                 }
                 o += "]}";
               });

  out += ",\"series\":";
  append_array(out, snap.series, [](std::string& o, const SeriesSample& s) {
    o += "{\"name\":";
    append_string(o, s.name);
    o += ",\"dropped\":";
    append_u64(o, s.dropped);
    o += ",\"times\":";
    append_array(o, s.times,
                 [](std::string& oo, double v) { append_double(oo, v); });
    o += ",\"values\":";
    append_array(o, s.values,
                 [](std::string& oo, double v) { append_double(oo, v); });
    o += '}';
  });

  out += "}\n";
  return out;
}

void write_json(const std::string& path, const MetricsSnapshot& snap) {
  write_file(path, to_json(snap));
}

MetricsSnapshot snapshot_from_json(std::string_view json) {
  const json::Value root = json::parse(json);
  const json::Object& obj = root.as_object();
  if (member(obj, "schema").as_string() != kMetricsSchema) {
    throw std::runtime_error("metrics json: unknown schema");
  }

  MetricsSnapshot snap;
  snap.taken_at_seconds = member(obj, "taken_at_seconds").as_double();

  for (const auto& [name, value] : member(obj, "counters").as_object()) {
    snap.counters.push_back(CounterSample{name, value.as_u64()});
  }
  for (const auto& [name, value] : member(obj, "gauges").as_object()) {
    snap.gauges.push_back(GaugeSample{name, value.as_double()});
  }

  for (const auto& h : member(obj, "histograms").as_array()) {
    const json::Object& ho = h.as_object();
    HistogramSample sample;
    sample.name = member(ho, "name").as_string();
    sample.min_value = member(ho, "min_value").as_double();
    sample.count = member(ho, "count").as_u64();
    sample.sum = member(ho, "sum").as_double();
    sample.min = member(ho, "min").as_double();
    sample.max = member(ho, "max").as_double();
    // Every histogram has the same fixed bucket layout; checking the count
    // before sizing the array keeps a hostile file from naming any size.
    if (member(ho, "bucket_count").as_u64() != LogHistogram::kBucketCount) {
      throw std::runtime_error("metrics json: bad bucket_count");
    }
    sample.buckets.assign(LogHistogram::kBucketCount, 0);
    for (const auto& entry : member(ho, "buckets").as_array()) {
      const json::Array& pair = entry.as_array();
      if (pair.size() != 2) {
        throw std::runtime_error("metrics json: bad bucket entry");
      }
      const std::uint64_t index = pair[0].as_u64();
      if (index >= sample.buckets.size()) {
        throw std::runtime_error("metrics json: bucket index out of range");
      }
      sample.buckets[index] = pair[1].as_u64();
    }
    snap.histograms.push_back(std::move(sample));
  }

  for (const auto& s : member(obj, "series").as_array()) {
    const json::Object& so = s.as_object();
    SeriesSample sample;
    sample.name = member(so, "name").as_string();
    sample.dropped = member(so, "dropped").as_u64();
    sample.times = double_array(member(so, "times"));
    sample.values = double_array(member(so, "values"));
    if (sample.times.size() != sample.values.size()) {
      throw std::runtime_error("metrics json: series length mismatch");
    }
    snap.series.push_back(std::move(sample));
  }

  return snap;
}

MetricsSnapshot read_json(const std::string& path) {
  return snapshot_from_json(read_file(path));
}

// --- CSV --------------------------------------------------------------------

std::string series_to_csv(const MetricsSnapshot& snap) {
  std::string out = "series,time,value\n";
  for (const auto& s : snap.series) {
    for (std::size_t i = 0; i < s.times.size(); ++i) {
      // Series names are metric identifiers (no commas/quotes); written
      // bare to keep the file trivially greppable.
      out += s.name;
      out += ',';
      append_double(out, s.times[i]);
      out += ',';
      append_double(out, s.values[i]);
      out += '\n';
    }
  }
  return out;
}

void write_series_csv(const std::string& path, const MetricsSnapshot& snap) {
  write_file(path, series_to_csv(snap));
}

std::vector<SeriesSample> series_from_csv(std::string_view csv) {
  std::vector<SeriesSample> out;
  std::size_t pos = 0;
  bool header = true;
  while (pos < csv.size()) {
    std::size_t eol = csv.find('\n', pos);
    if (eol == std::string_view::npos) eol = csv.size();
    const std::string_view line = csv.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (header) {
      if (line != "series,time,value") {
        throw std::runtime_error("metrics csv: bad header");
      }
      header = false;
      continue;
    }
    const std::size_t c1 = line.find(',');
    const std::size_t c2 =
        c1 == std::string_view::npos ? c1 : line.find(',', c1 + 1);
    if (c2 == std::string_view::npos) {
      throw std::runtime_error("metrics csv: bad row");
    }
    const std::string_view name = line.substr(0, c1);
    const std::string time_text(line.substr(c1 + 1, c2 - c1 - 1));
    const std::string value_text(line.substr(c2 + 1));
    if (out.empty() || out.back().name != name) {
      out.push_back(SeriesSample{std::string(name), 0, {}, {}});
    }
    out.back().times.push_back(std::strtod(time_text.c_str(), nullptr));
    out.back().values.push_back(std::strtod(value_text.c_str(), nullptr));
  }
  if (header) {
    throw std::runtime_error("metrics csv: empty input");
  }
  return out;
}

}  // namespace oddci::obs
