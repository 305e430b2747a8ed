// Shared pieces of the benchmark program: host clocks, workload loading,
// result digests and the per-operation output check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/framework.hpp"
#include "explore/explorer.hpp"

namespace perfbench {

/// Host monotonic clock, seconds.
double now_s();
/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();
/// Peak resident set of this process so far (VmHWM), MB.
double peak_rss_mb();

double median(std::vector<double> v);

enum class WorkloadKind { kSequential, kCampaign, kExplore };

/// One benchmark workload resolved for a seed: the experiments it runs (or
/// the explorer search), ready to execute. The seed overrides every
/// ExperimentConfig::seed.
struct Workload {
  WorkloadKind kind = WorkloadKind::kSequential;
  int concurrency = 1;
  std::vector<adaptviz::CampaignRun> cells;  // kSequential / kCampaign
  adaptviz::ExperimentConfig explore_config;  // kExplore
  adaptviz::ExploreSpec explore_spec;          // kExplore
};

/// Parses the workload's INI under <bench_dir>/workloads and expands it.
Workload load_workload(const std::string& name, const std::string& bench_dir,
                       std::uint64_t seed);

/// FNV-1a digest (16 hex digits) of an experiment's result series:
/// summary, telemetry samples, visualization records, decisions and track.
std::string digest_result(const adaptviz::ExperimentResult& r);

/// Output check that holds at any seed. Returns an empty string when the
/// result passes, otherwise what failed.
std::string check_result(const adaptviz::ExperimentResult& r);

/// Explorer output check at any seed: the search must find the seeded
/// greedy-stall violation.
std::string check_explore(const adaptviz::ExploreReport& report);

}  // namespace perfbench
