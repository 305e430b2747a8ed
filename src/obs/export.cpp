#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/wire.hpp"

namespace adaptviz::obs {
namespace {

void write_number(std::ostream& out, double v) {
  // JSON has no inf/nan; clamp to null (never produced by our metrics,
  // but the exporter must not emit an invalid document).
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out << buf;
  } else {
    out << "null";
  }
}

}  // namespace

void write_json(std::ostream& out, const MetricsSnapshot& metrics,
                const std::vector<TraceEvent>& trace) {
  out << "{\n  \"metrics\": {\n    \"counters\": {";
  for (std::size_t i = 0; i < metrics.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      "
        << wire::json_quote(metrics.counters[i].name) << ": "
        << metrics.counters[i].value;
  }
  out << "\n    },\n    \"gauges\": {";
  for (std::size_t i = 0; i < metrics.gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      "
        << wire::json_quote(metrics.gauges[i].name) << ": ";
    write_number(out, metrics.gauges[i].value);
  }
  out << "\n    },\n    \"histograms\": {";
  for (std::size_t i = 0; i < metrics.histograms.size(); ++i) {
    const auto& h = metrics.histograms[i].snapshot;
    out << (i == 0 ? "\n" : ",\n") << "      "
        << wire::json_quote(metrics.histograms[i].name) << ": {\"count\": "
        << h.count << ", \"sum\": ";
    write_number(out, h.sum);
    out << ", \"min\": ";
    write_number(out, h.min);
    out << ", \"max\": ";
    write_number(out, h.max);
    out << ", \"bounds\": [";
    for (std::size_t k = 0; k < h.upper_bounds.size(); ++k) {
      if (k != 0) out << ", ";
      write_number(out, h.upper_bounds[k]);
    }
    out << "], \"buckets\": [";
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      if (k != 0) out << ", ";
      out << h.counts[k];
    }
    out << "]}";
  }
  out << "\n    }\n  },\n  \"trace\": [";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"stage\": "
        << wire::json_quote(e.stage) << ", \"clock\": \"" << to_string(e.clock)
        << "\", \"start\": ";
    write_number(out, e.start_seconds);
    out << ", \"duration\": ";
    write_number(out, e.duration_seconds);
    out << ", \"meta\": " << wire::json_quote(e.metadata) << "}";
  }
  out << "\n  ]\n}\n";
}

void save_json(const std::string& path, const MetricsSnapshot& metrics,
               const std::vector<TraceEvent>& trace) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs: cannot write " + path);
  }
  write_json(out, metrics, trace);
}

void write_trace_csv(std::ostream& out,
                     const std::vector<TraceEvent>& trace) {
  out << "stage,clock,start_seconds,duration_seconds,metadata\n";
  for (const TraceEvent& e : trace) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g,%.9g", e.start_seconds,
                  e.duration_seconds);
    // Metadata is quoted; embedded quotes are doubled per RFC 4180.
    std::string meta = e.metadata;
    std::string quoted;
    quoted.reserve(meta.size() + 2);
    for (const char c : meta) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    out << e.stage << ',' << to_string(e.clock) << ',' << buf << ",\""
        << quoted << "\"\n";
  }
}

}  // namespace adaptviz::obs
