#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "campaign/campaign.hpp"
#include "core/scenario.hpp"
#include "util/ini.hpp"

namespace perfbench {

using namespace adaptviz;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would carry
  // over the high-water mark of whatever process exec'd this one.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Workload load_workload(const std::string& name, const std::string& bench_dir,
                       std::uint64_t seed) {
  Workload w;
  const std::string dir = bench_dir + "/workloads/";
  if (name == "table4-seq" || name == "table4-codec-k3") {
    const CampaignSpec spec = load_campaign(
        dir + (name == "table4-seq" ? "table4_seq.ini" : "table4_codec_k3.ini"));
    w.kind = spec.concurrency > 1 ? WorkloadKind::kCampaign
                                  : WorkloadKind::kSequential;
    w.concurrency = spec.concurrency;
    w.cells = spec.expand();
    for (CampaignRun& cell : w.cells) cell.config.seed = seed;
  } else if (name == "explore-smoke") {
    const IniDocument doc = IniDocument::load(dir + "explore_smoke.ini");
    w.kind = WorkloadKind::kExplore;
    w.explore_config = scenario_from_ini(doc);
    w.explore_config.seed = seed;
    w.explore_spec = explore_spec_from_ini(doc);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace

std::string digest_result(const ExperimentResult& r) {
  Fnv1a h;
  const ExperimentSummary& s = r.summary;
  h.i64(s.completed);
  h.f64(s.wall_elapsed.seconds());
  h.f64(s.sim_reached.seconds());
  h.i64(s.peak_disk_used.count());
  h.f64(s.total_stall_time.seconds());
  h.i64(s.frames_written);
  h.i64(s.frames_sent);
  h.i64(s.frames_visualized);
  h.i64(s.restarts);
  h.i64(s.decision_count);
  h.f64(s.codec_mean_ratio);
  h.i64(s.codec_bytes_saved.count());
  for (const TelemetrySample& t : r.samples) {
    h.f64(t.wall_time.seconds());
    h.f64(t.sim_time.seconds());
    h.f64(t.free_disk_percent);
    h.i64(t.processors);
    h.f64(t.output_interval.seconds());
    h.f64(t.resolution_km);
    h.f64(t.min_pressure_hpa);
    h.i64(t.stalled);
    h.i64(t.critical);
    h.i64(t.frames_written);
    h.i64(t.frames_sent);
    h.i64(t.frames_visualized);
    h.f64(t.codec_ratio);
  }
  for (const VisRecord& v : r.vis_records) {
    h.f64(v.wall_time.seconds());
    h.f64(v.sim_time.seconds());
    h.i64(v.sequence);
    h.i64(v.size.count());
  }
  for (const DecisionRecord& d : r.decisions) {
    h.f64(d.wall_time.seconds());
    h.i64(d.decision.processors);
    h.f64(d.decision.output_interval.seconds());
    h.i64(d.decision.critical);
  }
  for (const TrackPoint& p : r.track) {
    h.f64(p.time.seconds());
    h.f64(p.eye.lat);
    h.f64(p.eye.lon);
    h.f64(p.min_pressure_hpa);
    h.f64(p.max_wind_ms);
  }
  return h.hex();
}

std::string check_result(const ExperimentResult& r) {
  const ExperimentSummary& s = r.summary;
  const std::string frames = std::to_string(s.frames_written) + "/" +
                             std::to_string(s.frames_sent) + "/" +
                             std::to_string(s.frames_visualized);
  if (s.frames_sent > s.frames_written ||
      s.frames_visualized > s.frames_sent) {
    return "frames written/sent/visualized " + frames + " not monotone";
  }
  // A run that finished its simulation and ended before the wall cutoff
  // drained its pipeline. One cut off at max_wall may still hold frames on
  // disk or in flight: the cross-continent WAN moves 14 of 143 frames of the
  // optimization cell in 96 h.
  const bool drained = s.completed && s.wall_elapsed < r.config.max_wall;
  if (drained && (s.frames_written != s.frames_sent ||
                  s.frames_sent != s.frames_visualized)) {
    return "completed run with frames written/sent/visualized " + frames;
  }
  if (s.peak_disk_used > r.config.site.disk_capacity) {
    return "peak disk " + std::to_string(s.peak_disk_used.count()) +
           " B exceeds capacity " +
           std::to_string(r.config.site.disk_capacity.count()) + " B";
  }
  return "";
}

std::string check_explore(const ExploreReport& report) {
  for (const Violation& v : report.violations) {
    if (v.invariant == "greedy-stall") return "";
  }
  return "explorer did not find the seeded greedy-stall violation";
}

}  // namespace perfbench
