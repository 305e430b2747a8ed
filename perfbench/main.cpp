// perfbench: host-time benchmark of the adaptive loop.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --bench-dir DIR --out-dir DIR
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then runs whole passes over the workload back to back while the next
// pass, if it takes as long as the last, still ends within S seconds (at
// least one pass), and reports the end-to-end metrics as medians over
// passes. --trace 1 runs one untraced
// pass and one traced pass (traced.hpp) and reports the per-layer split,
// the tracing overhead and the unattributed remainder. Every operation (one
// experiment, or one explorer search) is output-checked; the last line of
// standard output is the JSON result.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "common.hpp"
#include "traced.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace perfbench {
namespace {

using namespace adaptviz;

/// The seed the stored reference digests were taken at (the paper's).
constexpr std::uint64_t kReferenceSeed = 42;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 31;

struct Args {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 40.0;
  int trace = 0;
  std::string bench_dir = "perfbench";
  std::string out_dir = ".bench_build/perfbench-out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--bench-dir") {
      a.bench_dir = val;
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace 0|1");
  return a;
}

/// Scenario parsing, grid expansion, framework construction and start_run
/// of the first experiment: everything before the first event.
double setup_once(const Args& a, Workload& w) {
  const double t0 = now_s();
  w = load_workload(a.workload, a.bench_dir, a.seed);
  if (w.kind == WorkloadKind::kExplore) {
    const ScenarioExplorer validated(w.explore_config, w.explore_spec);
  }
  AdaptiveFramework fw(w.kind == WorkloadKind::kExplore
                           ? w.explore_config
                           : w.cells.front().config);
  fw.start_run();
  return now_s() - t0;  // teardown is not set-up
}

/// One untraced pass over the workload.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> run_s;  // per experiment (grid order) or search
  double leaves = 0.0;        // explorer leaves, or experiments run
  std::vector<std::string> results;   // digest per cell, or report text
  std::vector<std::string> problems;  // per operation, empty = passed
  double tail_s = 0.0;          // campaign only
  double slot_busy_frac = 0.0;  // campaign only
};

void run_sequential(const Workload& w, Pass& p) {
  for (const CampaignRun& cell : w.cells) {
    const double t0 = now_s();
    try {
      AdaptiveFramework fw(cell.config);
      const ExperimentResult r = fw.run();
      p.run_s.push_back(now_s() - t0);
      p.results.push_back(digest_result(r));
      p.problems.push_back(check_result(r));
    } catch (const std::exception& e) {
      p.run_s.push_back(now_s() - t0);
      p.results.emplace_back();
      p.problems.push_back(std::string("threw: ") + e.what());
    }
  }
  p.leaves = static_cast<double>(w.cells.size());
}

void run_campaign(const Workload& w, Pass& p, double t0) {
  const std::size_t n = w.cells.size();
  const int k = std::min<int>(w.concurrency, static_cast<int>(n));
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < n; ++i) index_of[w.cells[i].label] = i;

  // The runner calls on_progress and the result sink under its own lock.
  std::vector<double> finish(n, 0.0);
  std::vector<std::size_t> order;  // completion order
  p.results.assign(n, "");
  p.problems.assign(n, "");
  CampaignOptions opt;
  opt.concurrency = k;
  opt.write_per_run_csvs = false;
  opt.write_summary_csv = false;
  opt.on_progress = [&](const CampaignProgress& prog) {
    const double t = now_s() - t0;
    const std::size_t i = index_of.at(prog.record->label);
    finish[i] = t;
    order.push_back(i);
  };
  CampaignRunner runner(opt);
  const std::vector<CampaignRunRecord> records = runner.run(
      w.cells, [&](std::size_t i, const CampaignRun&,
                   const ExperimentResult& r) {
        p.results[i] = digest_result(r);
        p.problems[i] = check_result(r);
      });
  for (std::size_t i = 0; i < n; ++i) {
    if (records[i].failed) p.problems[i] = "threw: " + records[i].error;
  }

  // The runner's pool is a FIFO closed loop: cells 0..k-1 start at once and
  // cell i >= k starts when the (i-k+1)-th run completes.
  std::vector<double> start(n, 0.0);
  for (std::size_t i = static_cast<std::size_t>(k); i < n; ++i) {
    start[i] = finish[order[i - static_cast<std::size_t>(k)]];
  }
  double busy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p.run_s.push_back(finish[i] - start[i]);
    busy += finish[i] - start[i];
  }
  const double end = finish[order.back()];
  // Fewer than k runs are in flight once the (n-k+1)-th run has completed.
  p.tail_s = end - finish[order[n - static_cast<std::size_t>(k)]];
  p.slot_busy_frac = busy / (k * end);
  p.leaves = static_cast<double>(n);
}

void run_explore(const Workload& w, Pass& p) {
  const double t0 = now_s();
  try {
    ScenarioExplorer explorer(w.explore_config, w.explore_spec);
    const ExploreReport report = explorer.explore();
    p.run_s.push_back(now_s() - t0);
    p.results.push_back(to_string(report));
    p.leaves = report.leaves_evaluated;
    p.problems.push_back(check_explore(report));
  } catch (const std::exception& e) {
    p.run_s.push_back(now_s() - t0);
    p.results.emplace_back();
    p.problems.push_back(std::string("threw: ") + e.what());
  }
}

Pass run_pass(const Workload& w) {
  Pass p;
  const double t0 = now_s();
  const double cpu0 = process_cpu_s();
  switch (w.kind) {
    case WorkloadKind::kSequential: run_sequential(w, p); break;
    case WorkloadKind::kCampaign: run_campaign(w, p, t0); break;
    case WorkloadKind::kExplore: run_explore(w, p); break;
  }
  p.wall_s = now_s() - t0;
  p.cpu_s = process_cpu_s() - cpu0;
  return p;
}

/// Stored reference results at kReferenceSeed: one "label digest" line per
/// cell, or the explorer report verbatim.
std::vector<std::string> load_reference(const Args& a, const Workload& w) {
  const std::string path = a.bench_dir + "/reference/" + a.workload + ".txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  if (w.kind == WorkloadKind::kExplore) return {ss.str()};
  std::map<std::string, std::string> by_label;
  std::string label, digest;
  while (ss >> label >> digest) by_label[label] = digest;
  std::vector<std::string> out;
  for (const CampaignRun& cell : w.cells) out.push_back(by_label[cell.label]);
  return out;
}

std::string result_label(const Workload& w, std::size_t i) {
  return w.kind == WorkloadKind::kExplore ? "explore report" : w.cells[i].label;
}

/// Marks every operation whose result differs from `want` (the stored
/// reference or the untraced pass) as failed.
void compare_results(const Workload& w, const std::vector<std::string>& got,
                     const std::vector<std::string>& want, const char* what,
                     std::vector<std::string>& problems) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want.at(i)) continue;
    std::string& p = problems.at(i);
    if (!p.empty()) p += "; ";
    p += std::string("result differs from ") + what;
    p += w.kind == WorkloadKind::kExplore
             ? "; got:\n" + got[i]
             : " (got " + got[i] + ", want " + want[i] + ")";
  }
}

std::int64_t count_failed(const std::vector<std::string>& problems) {
  return std::count_if(problems.begin(), problems.end(),
                       [](const std::string& p) { return !p.empty(); });
}

void print_problems(const Workload& w,
                    const std::vector<std::string>& problems) {
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (problems[i].empty()) continue;
    std::printf("CHECK FAILED: %s: %s\n", result_label(w, i).c_str(),
                problems[i].c_str());
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integer = false;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char num[64];
    if (m.integer) {
      std::snprintf(num, sizeof num, "%lld", static_cast<long long>(m.value));
    } else {
      std::snprintf(num, sizeof num, "%.17g", m.value);
    }
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_metric_lines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.integer) {
      std::printf("  %-26s %14lld %s\n", m.name.c_str(),
                  static_cast<long long>(m.value), m.unit.c_str());
    } else {
      std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

int run_untraced(const Args& a, Workload& w, double setup_s) {
  const bool at_reference = a.seed == kReferenceSeed;
  const std::vector<std::string> reference =
      at_reference ? load_reference(a, w) : std::vector<std::string>{};

  std::vector<Pass> passes;
  std::int64_t attempted = 0, failed = 0;
  const double start = now_s();
  do {
    Pass p = run_pass(w);
    if (at_reference) {
      compare_results(w, p.results, reference, "the stored reference",
                      p.problems);
    }
    attempted += static_cast<std::int64_t>(p.problems.size());
    failed += count_failed(p.problems);
    passes.push_back(std::move(p));
  } while (now_s() - start + passes.back().wall_s <= a.seconds);

  std::vector<double> wall, cpu, runs, pmax, rate;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    runs.insert(runs.end(), p.run_s.begin(), p.run_s.end());
    pmax.push_back(*std::max_element(p.run_s.begin(), p.run_s.end()));
    rate.push_back(p.leaves / p.wall_s);
  }
  const std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"wall_s", perfbench::median(wall), "s"},
      {"cpu_s", perfbench::median(cpu), "s"},
      {"run_s_p50", perfbench::median(runs), "s"},
      {"run_s_max", perfbench::median(pmax), "s"},
      {"leaves_per_s", perfbench::median(rate), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_frac",
       static_cast<double>(attempted - failed) / static_cast<double>(attempted),
       "ratio"},
  };

  std::printf("perfbench %s seed=%llu: %zu pass(es), %zu experiment samples "
              "(%zu per pass); set-up median of %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              passes.size(), runs.size(), passes.front().run_s.size(),
              kSetupReps);
  std::printf("  (wall_s, cpu_s, run_s_max, leaves_per_s: medians over "
              "passes; run_s_p50: median of all experiment samples; "
              "run_s_max: slowest experiment of a pass)\n");
  std::printf("  pass walls (s):");
  for (double x : wall) std::printf(" %.4f", x);
  std::printf("\n");
  if (w.kind != WorkloadKind::kExplore) {
    for (const Pass& p : passes) {
      std::printf("  experiment host s:");
      for (std::size_t i = 0; i < p.run_s.size(); ++i) {
        std::printf(" %s=%.3f", w.cells[i].label.c_str(), p.run_s[i]);
      }
      std::printf("\n");
    }
  }
  print_metric_lines(metrics);
  std::printf("  failed_frac                %14.6g ratio (%lld of %lld "
              "operations)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  for (const Pass& p : passes) print_problems(w, p.problems);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

int run_traced(const Args& a, Workload& w, double setup_s) {
  const bool at_reference = a.seed == kReferenceSeed;
  Pass u = run_pass(w);
  TracedPass t = run_traced_pass(w);

  if (at_reference) {
    const std::vector<std::string> reference = load_reference(a, w);
    compare_results(w, u.results, reference, "the stored reference",
                    u.problems);
    compare_results(w, t.results, reference, "the stored reference",
                    t.problems);
  }
  compare_results(w, t.results, u.results, "the untraced pass", t.problems);
  const std::int64_t attempted =
      static_cast<std::int64_t>(u.problems.size() + t.problems.size());
  const std::int64_t failed = count_failed(u.problems) + count_failed(t.problems);

  std::filesystem::create_directories(a.out_dir);
  const std::string spans_path = a.out_dir + "/spans-" + a.workload + "-seed" +
                                 std::to_string(a.seed) + ".csv";
  write_spans(spans_path, t);

  const LayerTotals& L = t.totals;
  const double codec_s = L.codec_encode_s + L.codec_verify_s;
  // Shares of the traced pass's own experiment thread time (its CPU time net
  // of instrumentation), so numerator and denominator see the same machine.
  const double weather_share = L.busy_s > 0 ? L.weather_step_s / L.busy_s : 0.0;
  const double codec_cpu_share = L.busy_s > 0 ? codec_s / L.busy_s : 0.0;
  const double unattributed =
      L.busy_s > 0 ? 1.0 - L.attributed_s() / L.busy_s : 1.0;
  const double split = L.weather_forcing_s + L.weather_solver_s +
                       L.weather_nest_s + L.weather_tracker_s;

  // Workload-design checks (see design.json); a failure is reported,
  // never hidden, and does not change `correct`.
  struct Check {
    std::string what;
    bool ok;
  };
  std::vector<Check> checks;
  checks.push_back({format("unattributed %.3f <= 0.10", unattributed),
                    unattributed <= 0.10});
  const bool explore = w.kind == WorkloadKind::kExplore;
  checks.push_back({"explore.snapshot_s + restore_s non-zero only on "
                    "explore-smoke",
                    (L.snapshot_s + L.restore_s > 0) == explore});
  if (a.workload == "table4-seq") {
    checks.push_back({format("weather share of host time %.3f >= 0.80",
                             weather_share),
                      weather_share >= 0.80});
    checks.push_back({"dataio.codec_* == 0", codec_s == 0.0});
  } else if (a.workload == "table4-codec-k3") {
    checks.push_back({format("codec share of cpu_s %.3f >= 0.40",
                             codec_cpu_share),
                      codec_cpu_share >= 0.40});
  }
  bool design_ok = true;
  for (const Check& c : checks) design_ok = design_ok && c.ok;

  auto count = [](const char* name, std::int64_t v, const char* unit) {
    return Metric{name, static_cast<double>(v), unit, true};
  };
  const std::vector<Metric> metrics = {
      {"weather.step_s", L.weather_step_s, "s"},
      count("weather.steps", L.weather_steps, "count"),
      {"weather.forcing_s", L.weather_forcing_s, "s"},
      {"weather.solver_s", L.weather_solver_s, "s"},
      {"weather.nest_s", L.weather_nest_s, "s"},
      {"weather.tracker_s", L.weather_tracker_s, "s"},
      {"weather.mpoints_per_s",
       L.weather_step_s > 0 ? L.weather_mpoints / L.weather_step_s : 0.0,
       "Mpoint/s"},
      {"weather.split_frac", L.weather_step_s > 0 ? split / L.weather_step_s : 0.0,
       "ratio"},
      count("dataio.codec_frames", L.codec_frames, "count"),
      {"dataio.codec_encode_s", L.codec_encode_s, "s"},
      {"dataio.codec_verify_s", L.codec_verify_s, "s"},
      {"dataio.codec_mb_per_s",
       L.codec_encode_s > 0 ? L.codec_raw_bytes / 1e6 / L.codec_encode_s : 0.0,
       "MB/s"},
      {"dataio.codec_ratio",
       L.codec_encoded_bytes > 0 ? L.codec_raw_bytes / L.codec_encoded_bytes
                                 : 0.0,
       "ratio"},
      count("core.events", L.events, "count"),
      count("core.decisions", L.decisions, "count"),
      {"core.decision_s", L.decision_s, "s"},
      count("core.restarts", L.restarts, "count"),
      {"core.restart_s", L.restart_s, "s"},
      {"core.other_event_s", L.other_event_s, "s"},
      {"core.run_setup_s", L.run_setup_s, "s"},
      {"campaign.slot_busy_frac", u.slot_busy_frac, "ratio"},
      {"campaign.tail_s", u.tail_s, "s"},
      count("explore.nodes", L.explore_nodes, "count"),
      count("explore.leaves", L.explore_leaves, "count"),
      count("explore.pruned", L.explore_pruned, "count"),
      {"explore.snapshot_s", L.snapshot_s, "s"},
      {"explore.restore_s", L.restore_s, "s"},
      {"explore.check_s", L.check_s, "s"},
      count("transport.frames_sent", L.frames_sent, "count"),
      count("transport.retries", L.retries, "count"),
      {"trace.overhead_frac", (t.wall_s - u.wall_s) / u.wall_s, "ratio"},
      {"trace.unattributed_frac", unattributed, "ratio"},
      {"trace.instrument_s", L.instrument_s, "s"},
      {"check.weather_share", weather_share, "ratio"},
      {"check.codec_cpu_share", codec_cpu_share, "ratio"},
      count("check.design_ok", design_ok ? 1 : 0, "count"),
  };

  std::printf("perfbench %s seed=%llu traced: untraced pass wall %.4f s, cpu "
              "%.4f s; traced pass wall %.4f s (instrumentation %.4f s); "
              "set-up median %.4f s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              u.wall_s, u.cpu_s, t.wall_s, L.instrument_s, setup_s);
  std::printf("  traced experiment thread time %.4f s, attributed %.4f s; "
              "spans in %s\n",
              L.busy_s, L.attributed_s(), spans_path.c_str());
  print_metric_lines(metrics);
  for (const Check& c : checks) {
    std::printf("  design check %s: %s\n", c.ok ? "PASS" : "FAIL",
                c.what.c_str());
  }
  print_problems(w, u.problems);
  print_problems(w, t.problems);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse_args(argc, argv);
    adaptviz::set_log_level(adaptviz::LogLevel::kError);
    Workload w;
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) setups.push_back(setup_once(a, w));
    const double setup_s = perfbench::median(setups);
    return a.trace == 0 ? run_untraced(a, w, setup_s)
                        : run_traced(a, w, setup_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
