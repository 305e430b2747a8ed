// Microbenchmarks (google-benchmark): the per-operation costs behind the
// framework — LP solve, shallow-water step at several compute resolutions,
// nest substep cycle, frame encode/decode, render, and decision latency.
//
// Before the google-benchmark suite runs, two self-checking cases write
// their measurements to BENCH_kernels.json (--json=PATH overrides; --quick
// runs only these cases at smoke size): the kernel case measures the
// restructured row kernels against the scalar reference and verifies
// bitwise-identical digests across kernels and worker counts, unforced and
// with all four forcing terms; the
// forcing_step case measures one parent step of storm forcing with the
// nest geometry rebuilt per sub-step versus built once and reused, and
// verifies both give identical digests.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_report.hpp"
#include "core/greedy_threshold.hpp"
#include "core/lp_optimizer.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "perf/perf_model.hpp"
#include "util/thread_pool.hpp"
#include "vis/renderer.hpp"
#include "weather/model.hpp"

namespace {

using namespace adaptviz;

void BM_LpSolve(benchmark::State& state) {
  lp::Problem p;
  const int t = p.add_variable("t", 30.0, 300.0, 1.0);
  const int z = p.add_variable("z", 0.04, 0.33, -1e-4);
  const int y = p.add_variable("y", 0.0, lp::kInfinity, 0.0);
  p.add_constraint("y_le_z", {{y, 1.0}, {z, -1.0}}, lp::Relation::kLessEqual,
                   0.0);
  p.add_constraint("eq5", {{t, 1.0}, {z, 6.0}, {y, -880.0}},
                   lp::Relation::kLessEqual, 0.0);
  p.add_constraint("eq6", {{t, 1.0}, {z, -424.0}},
                   lp::Relation::kGreaterEqual, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p));
  }
}
BENCHMARK(BM_LpSolve);

void BM_SwStep(benchmark::State& state) {
  const double res = static_cast<double>(state.range(0));
  GridSpec g(60.0, -10.0, 60.0, 50.0, res);
  DomainState s(g);
  SwSolver solver;
  const double dt = SwSolver::dt_for_resolution_km(res);
  for (auto _ : state) {
    solver.step(s, dt, SwForcing{});
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.point_count()));
  state.counters["points"] = static_cast<double>(g.point_count());
}
BENCHMARK(BM_SwStep)->Arg(300)->Arg(192)->Arg(96);

// --- Parallel scaling on the persistent pool ---------------------------
//
// The same 96-km shallow-water step at 1/2/4/8 workers; the six parallel
// regions per step draw lanes from ThreadPool::shared().

void BM_SwStepPool(benchmark::State& state) {
  const double res = 96.0;
  GridSpec g(60.0, -10.0, 60.0, 50.0, res);
  DomainState s(g);
  SwParams params;
  params.threads = static_cast<int>(state.range(0));
  SwSolver solver(params);
  const double dt = SwSolver::dt_for_resolution_km(res);
  for (auto _ : state) {
    solver.step(s, dt, SwForcing{});
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.point_count()));
}
BENCHMARK(BM_SwStepPool)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Raw fork-join dispatch latency of one near-empty region: the fixed
// overhead every parallel call pays.
void BM_ParallelForPool(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::size_t sink = 0;
  for (auto _ : state) {
    ThreadPool::shared().parallel_for(
        0, 64, threads, [&](std::size_t lo, std::size_t hi) {
          benchmark::DoNotOptimize(sink += hi - lo);
        });
  }
}
BENCHMARK(BM_ParallelForPool)->Arg(2)->Arg(4)->Arg(8);

void BM_ModelFullStep(benchmark::State& state) {
  ModelConfig cfg;
  cfg.compute_scale = static_cast<double>(state.range(0));
  WeatherModel model(cfg);
  // Deepen until the nest exists so the step includes nest substeps.
  while (!model.nest_active() && model.sim_time() < SimSeconds::hours(30)) {
    model.step();
  }
  for (auto _ : state) {
    model.step();
  }
}
BENCHMARK(BM_ModelFullStep)->Arg(12)->Arg(8);

void BM_FrameEncodeDecode(benchmark::State& state) {
  ModelConfig cfg;
  cfg.compute_scale = 8.0;
  WeatherModel model(cfg);
  const NclFile frame = model.make_frame();
  for (auto _ : state) {
    std::stringstream ss;
    frame.encode(ss);
    benchmark::DoNotOptimize(NclFile::decode(ss));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame.encoded_size()));
}
BENCHMARK(BM_FrameEncodeDecode);

void BM_RenderFrame(benchmark::State& state) {
  ModelConfig cfg;
  cfg.compute_scale = 8.0;
  WeatherModel model(cfg);
  while (model.sim_time() < SimSeconds::hours(16)) model.step();
  const NclFile frame = model.make_frame();
  RenderOptions opts;
  opts.width = static_cast<std::size_t>(state.range(0));
  const FrameRenderer renderer(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderer.render(frame, nullptr));
  }
}
BENCHMARK(BM_RenderFrame)->Arg(240)->Arg(480);

// Base-layer render scaling: terrain + pseudocolor only (the band-parallel
// layer), 480 px wide, at 1/2/4/8 pool workers.
void BM_RenderBaseThreads(benchmark::State& state) {
  ModelConfig cfg;
  cfg.compute_scale = 8.0;
  WeatherModel model(cfg);
  while (model.sim_time() < SimSeconds::hours(16)) model.step();
  const NclFile frame = model.make_frame();
  RenderOptions opts;
  opts.width = 480;
  opts.draw_contours = false;
  opts.draw_glyphs = false;
  opts.draw_nest_box = false;
  opts.draw_track = false;
  opts.draw_eye = false;
  opts.threads = static_cast<int>(state.range(0));
  const FrameRenderer renderer(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderer.render(frame, nullptr));
  }
}
BENCHMARK(BM_RenderBaseThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

std::shared_ptr<PerformanceModel> micro_perf() {
  GroundTruthMachine machine(inter_department_site().machine, 1);
  BenchmarkProfiler profiler;
  return std::make_shared<PerformanceModel>(profiler.profile(machine, 1.0),
                                            48);
}

DecisionInput micro_input(const PerformanceModel& perf) {
  DecisionInput in;
  in.free_disk_percent = 45.0;
  in.disk_capacity = Bytes::gigabytes(182);
  in.free_disk_bytes = in.disk_capacity * 0.45;
  in.observed_bandwidth = Bandwidth::megabytes_per_second(2.0);
  in.io_bandwidth = Bandwidth::megabytes_per_second(150.0);
  in.work_units = 0.6;
  in.frame_bytes = Bytes::megabytes(900);
  in.integration_step = SimSeconds(60.0);
  in.remaining_sim_time = SimSeconds::hours(30.0);
  in.current_processors = 48;
  in.current_output_interval = SimSeconds::minutes(3.0);
  in.perf = &perf;
  in.min_processors = 4;
  in.max_processors = 48;
  return in;
}

void BM_GreedyDecision(benchmark::State& state) {
  auto perf = micro_perf();
  GreedyThresholdAlgorithm algo;
  const DecisionInput in = micro_input(*perf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.decide(in));
  }
}
BENCHMARK(BM_GreedyDecision);

void BM_OptimizerDecision(benchmark::State& state) {
  auto perf = micro_perf();
  LpOptimizerAlgorithm algo;
  const DecisionInput in = micro_input(*perf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.decide(in));
  }
}
BENCHMARK(BM_OptimizerDecision);

// --- Kernel speedup + determinism gate (BENCH_kernels.json) ------------

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t state_digest(const DomainState& s) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a_bytes(h, s.h.data().data(), s.h.size() * sizeof(double));
  h = fnv1a_bytes(h, s.u.data().data(), s.u.size() * sizeof(double));
  h = fnv1a_bytes(h, s.v.data().data(), s.v.size() * sizeof(double));
  return h;
}

/// A smooth, non-trivial initial condition (Gaussian depression with a
/// weak cyclonic circulation) so the kernels chew on real numbers.
DomainState kernel_initial_state(const GridSpec& g) {
  DomainState s(g);
  const double cx = 0.5 * static_cast<double>(g.nx());
  const double cy = 0.5 * static_cast<double>(g.ny());
  const double r2 = 0.02 * static_cast<double>(g.nx() * g.ny());
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const double dx = static_cast<double>(i) - cx;
      const double dy = static_cast<double>(j) - cy;
      const double bump = std::exp(-(dx * dx + dy * dy) / r2);
      s.h(i, j) = -120.0 * bump;
      s.u(i, j) = 8.0 * dy / 30.0 * bump;
      s.v(i, j) = -8.0 * dx / 30.0 * bump;
    }
  }
  return s;
}

/// Best-of-`reps` seconds per step for one kernel/thread configuration.
double seconds_per_step(const DomainState& init, SwKernel kernel, int threads,
                        int steps, int reps) {
  SwParams params;
  params.kernel = kernel;
  params.threads = threads;
  const double dt = SwSolver::dt_for_resolution_km(init.grid.resolution_km());
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    DomainState s = init;
    SwSolver solver(params);
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < steps; ++k) solver.step(s, dt, SwForcing{});
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(s.h.data().data());
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count() /
                              static_cast<double>(steps));
  }
  return best;
}

std::uint64_t digest_after_steps(const DomainState& init, SwKernel kernel,
                                 int threads, int steps,
                                 const SwForcing& forcing) {
  SwParams params;
  params.kernel = kernel;
  params.threads = threads;
  DomainState s = init;
  SwSolver solver(params);
  const double dt = SwSolver::dt_for_resolution_km(init.grid.resolution_km());
  for (int k = 0; k < steps; ++k) solver.step(s, dt, forcing);
  return state_digest(s);
}

/// All four optional forcing terms on `g`, shaped like the storm forcing
/// the model applies: mass and momentum tendencies near the centre,
/// relaxation everywhere (land friction plus far-field nudging). Fields are
/// members so the SwForcing pointers stay valid.
struct ProductionForcing {
  explicit ProductionForcing(const GridSpec& g)
      : q(g.nx(), g.ny()), fu(g.nx(), g.ny()), fv(g.nx(), g.ny()),
        relax(g.nx(), g.ny()) {
    const double cx = 0.5 * static_cast<double>(g.nx());
    const double cy = 0.5 * static_cast<double>(g.ny());
    for (std::size_t j = 0; j < g.ny(); ++j) {
      for (std::size_t i = 0; i < g.nx(); ++i) {
        const double dx = static_cast<double>(i) - cx;
        const double dy = static_cast<double>(j) - cy;
        const double w = std::exp(-(dx * dx + dy * dy) / 50.0);
        q(i, j) = -2e-4 * w;
        fu(i, j) = 3e-6 * dy * w;
        fv(i, j) = -3e-6 * dx * w;
        relax(i, j) = (i % 7 == 0 ? 1.0 / 21600.0 : 0.0) + (1.0 - w) / 86400.0;
      }
    }
    forcing.steering_u = -3.0;
    forcing.steering_v = 1.5;
    forcing.mass_tendency = &q;
    forcing.u_tendency = &fu;
    forcing.v_tendency = &fv;
    forcing.relaxation = &relax;
  }
  Field2D q, fu, fv, relax;
  SwForcing forcing;
};

/// Runs the kernel case, appends its rows to `report`, and returns the
/// number of hard failures (digest mismatch anywhere; speedup below the
/// 1.5x floor on hardware where the floor is enforced).
int run_kernel_report(benchio::BenchReport& report, bool quick) {
  const double res_km = 96.0;
  const GridSpec g(60.0, -10.0, 60.0, 50.0, res_km);
  const DomainState init = kernel_initial_state(g);
  const int steps = quick ? 60 : 400;
  const int reps = quick ? 3 : 5;

  const double scalar_s =
      seconds_per_step(init, SwKernel::kScalarReference, 1, steps, reps);
  const double row_s =
      seconds_per_step(init, SwKernel::kRowKernel, 1, steps, reps);
  const double speedup = scalar_s / row_s;

  report.add("kernel_step", "96km", "scalar_step_seconds", scalar_s, "s");
  report.add("kernel_step", "96km", "row_step_seconds", row_s, "s");
  report.add("kernel_step", "96km", "speedup", speedup, "x");

  // Bitwise determinism: the row kernels must reproduce the scalar
  // reference exactly, at every worker count — unforced, and with all four
  // forcing terms as WeatherModel::step passes them (the fused kernel
  // instantiation the production path runs).
  const int digest_steps = 10;
  const ProductionForcing forced(g);
  auto digests_match_with = [&](const SwForcing& forcing) {
    const std::uint64_t golden = digest_after_steps(
        init, SwKernel::kScalarReference, 1, digest_steps, forcing);
    bool match = true;
    for (const int threads : {1, 2, 8}) {
      match &= digest_after_steps(init, SwKernel::kRowKernel, threads,
                                  digest_steps, forcing) == golden;
    }
    return match;
  };
  const bool digests_match = digests_match_with(SwForcing{});
  const bool forced_digests_match = digests_match_with(forced.forcing);
  report.add("kernel_step", "96km", "digest_match",
             digests_match ? 1.0 : 0.0, "flag");
  report.add("kernel_step", "96km", "forced_digest_match",
             forced_digests_match ? 1.0 : 0.0, "flag");

  int failures = 0;
  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: row kernel digests diverge from the scalar "
                 "reference\n");
    ++failures;
  }
  if (!forced_digests_match) {
    std::fprintf(stderr,
                 "FAIL: forced row kernel digests diverge from the scalar "
                 "reference\n");
    ++failures;
  }

  // The 1.5x floor is enforced only where wide SIMD is compiled in
  // (-march=native on AVX2+ hardware, as in the CI kernel job); a baseline
  // SSE2 build still reports the measurement without gating on it.
#if defined(__AVX2__) || defined(__AVX512F__)
  const bool enforce_speedup = true;
#else
  const bool enforce_speedup = false;
#endif
  report.add("kernel_step", "96km", "speedup_floor_enforced",
             enforce_speedup ? 1.0 : 0.0, "flag");
  std::printf("kernel_step 96km: scalar %.3g s/step, row %.3g s/step, "
              "speedup %.2fx (floor %s), digests %s, forced digests %s\n",
              scalar_s, row_s, speedup,
              enforce_speedup ? "enforced" : "report-only",
              digests_match ? "match" : "DIVERGE",
              forced_digests_match ? "match" : "DIVERGE");
  if (enforce_speedup && speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: row-kernel speedup %.2fx is below the 1.5x floor\n",
                 speedup);
    ++failures;
  }
  return failures;
}

// --- Forcing geometry reuse (BENCH_kernels.json) ----------------------

std::uint64_t field_digest(std::uint64_t h, const Field2D& f) {
  return fnv1a_bytes(h, f.data().data(), f.size() * sizeof(double));
}

/// One domain's forcing outputs.
struct ForcingOut {
  Field2D q, fu, fv, relax;
  std::uint64_t digest(std::uint64_t h) const {
    for (const Field2D* f : {&q, &fu, &fv, &relax}) h = field_digest(h, *f);
    return h;
  }
};

/// The forcing work of one parent step: the parent once, then the nest's
/// kNestRatio sub-steps, each on its own flow state. With `split` the nest
/// geometry is built once and applied per sub-step (as WeatherModel::step
/// does); without, every sub-step calls build_forcing. Returns the digest
/// of every output.
std::uint64_t forcing_step(const CyclonePhysics& phys,
                           const DomainState& parent,
                           const Field2D& parent_land,
                           const std::vector<DomainState>& nest_states,
                           const Field2D& nest_land, bool split,
                           ForcingGeometry& geometry, ForcingOut& out) {
  std::uint64_t h = 1469598103934665603ull;
  phys.build_forcing(parent, parent_land, out.q, out.fu, out.fv, out.relax);
  h = out.digest(h);
  if (split) {
    phys.build_forcing_geometry(nest_states.front().grid, nest_land, geometry,
                                out.relax);
  }
  for (const DomainState& s : nest_states) {
    if (split) {
      phys.apply_forcing(geometry, s, out.q, out.fu, out.fv);
    } else {
      phys.build_forcing(s, nest_land, out.q, out.fu, out.fv, out.relax);
    }
    h = out.digest(h);
  }
  return h;
}

/// Times forcing_step both ways on the default parent grid (96 km compute)
/// and an 8 km-modeled nest (32 km compute) around a mature storm, appends
/// the rows to `report`, and returns 1 if the two digests differ. The speed
/// is reported, not gated.
int run_forcing_report(benchio::BenchReport& report, bool quick) {
  const LatLon eye{15.0, 88.0};
  const CyclonePhysics phys(PhysicsConfig{}, 30.0, eye);
  const HollandVortex storm{
      .center = eye, .deficit_hpa = 30.0, .r_max_km = 70.0, .b = 1.5};
  DomainState parent(GridSpec(60.0, -10.0, 60.0, 50.0, 96.0));
  storm.deposit(parent);
  const Field2D parent_land = land_mask(parent.grid);
  const GridSpec nest_grid(eye.lon - 4.5, eye.lat - 4.5, 9.0, 9.0, 32.0);
  std::vector<DomainState> nest_states;
  for (int k = 0; k < kNestRatio; ++k) {
    DomainState s(nest_grid);
    HollandVortex sub = storm;
    sub.deficit_hpa += 0.5 * k;  // each sub-step sees a different flow
    sub.deposit(s);
    nest_states.push_back(std::move(s));
  }
  const Field2D nest_land = land_mask(nest_grid);

  const int steps = quick ? 20 : 200;
  const int reps = quick ? 3 : 5;
  ForcingGeometry geometry;
  ForcingOut out;
  double seconds[2] = {1e300, 1e300};
  std::uint64_t digests[2] = {0, 0};
  for (int rep = 0; rep < reps; ++rep) {
    for (const bool split : {false, true}) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int k = 0; k < steps; ++k) {
        digests[split] = forcing_step(phys, parent, parent_land, nest_states,
                                      nest_land, split, geometry, out);
      }
      const auto t1 = std::chrono::steady_clock::now();
      seconds[split] =
          std::min(seconds[split],
                   std::chrono::duration<double>(t1 - t0).count() / steps);
    }
  }
  const double speedup = seconds[0] / seconds[1];
  const bool digests_match = digests[0] == digests[1];
  const char* cell = "96km+32km-nest";
  report.add("forcing_step", cell, "build_forcing_x4_seconds", seconds[0],
             "s");
  report.add("forcing_step", cell, "geometry_reuse_seconds", seconds[1], "s");
  report.add("forcing_step", cell, "speedup", speedup, "x");
  report.add("forcing_step", cell, "digest_match", digests_match ? 1.0 : 0.0,
             "flag");
  std::printf("forcing_step %s: build_forcing x4 %.3g s, geometry reuse "
              "%.3g s, speedup %.2fx, digests %s\n",
              cell, seconds[0], seconds[1], speedup,
              digests_match ? "match" : "DIVERGE");
  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: reused forcing geometry diverges from per-sub-step "
                 "build_forcing\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchio::BenchArgs args = benchio::parse_bench_args(argc, argv);
  const std::string json_path =
      args.json_path.empty() ? "BENCH_kernels.json" : args.json_path;

  benchio::BenchReport report;
  const int failures = run_kernel_report(report, args.quick) +
                       run_forcing_report(report, args.quick);
  report.save(json_path);
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(),
              report.rows().size());
  if (failures != 0) return 1;
  if (args.quick) return 0;

  int rest_argc = static_cast<int>(args.rest.size());
  benchmark::Initialize(&rest_argc, args.rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, args.rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
