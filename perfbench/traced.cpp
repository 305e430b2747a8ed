#include "traced.hpp"

#include <atomic>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "dataio/codec.hpp"
#include "util/string_util.hpp"
#include "weather/geography.hpp"

namespace perfbench {

using namespace adaptviz;

double LayerTotals::attributed_s() const {
  return weather_step_s + codec_encode_s + codec_verify_s + decision_s +
         restart_s + other_event_s + run_setup_s + snapshot_s + restore_s +
         check_s;
}

void LayerTotals::add(const LayerTotals& o) {
  weather_step_s += o.weather_step_s;
  weather_steps += o.weather_steps;
  weather_forcing_s += o.weather_forcing_s;
  weather_solver_s += o.weather_solver_s;
  weather_nest_s += o.weather_nest_s;
  weather_tracker_s += o.weather_tracker_s;
  weather_mpoints += o.weather_mpoints;
  codec_frames += o.codec_frames;
  codec_encode_s += o.codec_encode_s;
  codec_verify_s += o.codec_verify_s;
  codec_raw_bytes += o.codec_raw_bytes;
  codec_encoded_bytes += o.codec_encoded_bytes;
  events += o.events;
  decisions += o.decisions;
  decision_s += o.decision_s;
  restarts += o.restarts;
  restart_s += o.restart_s;
  other_event_s += o.other_event_s;
  run_setup_s += o.run_setup_s;
  explore_nodes += o.explore_nodes;
  explore_leaves += o.explore_leaves;
  explore_pruned += o.explore_pruned;
  snapshot_s += o.snapshot_s;
  restore_s += o.restore_s;
  check_s += o.check_s;
  frames_sent += o.frames_sent;
  retries += o.retries;
  instrument_s += o.instrument_s;
  busy_s += o.busy_s;
}

namespace {

/// Grid shape of one weather step: the sub-layer costs depend on it.
struct Shape {
  std::size_t pnx = 0, pny = 0, nnx = 0, nny = 0;
  bool storm = false;

  auto operator<=>(const Shape&) const = default;
};

Shape shape_of(const WeatherModel& m) {
  Shape s;
  s.pnx = m.parent_state().grid.nx();
  s.pny = m.parent_state().grid.ny();
  if (m.nest_active()) {
    s.nnx = m.nest()->grid().nx();
    s.nny = m.nest()->grid().ny();
  }
  // WeatherModel::step applies the cyclone forcing only above this deficit.
  s.storm = m.physics().deficit_hpa() > 2.0;
  return s;
}

/// Times the weather sub-layers on copies of a live model's state and
/// scales the per-step costs by the steps run at each grid shape.
class WeatherSampler {
 public:
  static constexpr int kSamplesPerShape = 3;

  void count_step(const Shape& s) { ++stats_[s].steps; }

  [[nodiscard]] bool wants_sample(const Shape& s) const {
    auto it = stats_.find(s);
    return it == stats_.end() || it->second.samples < kSamplesPerShape;
  }

  /// Replays one parent step of `m` on copies, timing each sub-layer the
  /// way WeatherModel::step calls it.
  void sample(const WeatherModel& m) {
    const Shape shape = shape_of(m);
    if (!solver_) solver_ = std::make_unique<SwSolver>(m.config().dynamics);
    const double dt = m.dt_seconds();
    DomainState parent = m.parent_state();
    std::optional<NestDomain> nest = m.nest();
    CycloneTracker tracker = m.tracker();
    const CyclonePhysics& physics = m.physics();
    const Field2D parent_land = land_mask(parent.grid);
    const Field2D nest_land =
        nest ? land_mask(nest->grid()) : Field2D();
    Forcing pf(parent.grid), nf(nest ? nest->grid() : parent.grid);

    double forcing = 0.0, solver = 0.0, nest_s = 0.0, track = 0.0;
    double t = now_s();
    auto lap = [&t](double& acc) {
      const double n = now_s();
      acc += n - t;
      t = n;
    };
    SwForcing f;
    if (shape.storm) {
      t = now_s();
      physics.build_forcing(parent, parent_land, pf.q, pf.fu, pf.fv, pf.relax);
      lap(forcing);
      pf.attach(f);
    }
    t = now_s();
    solver_->step(parent, dt, f);
    lap(solver);
    if (nest) {
      SwForcing g;
      for (int k = 0; k < kNestRatio; ++k) {
        t = now_s();
        nest->apply_boundary(parent);
        lap(nest_s);
        if (shape.storm) {
          physics.build_forcing(nest->state(), nest_land, nf.q, nf.fu, nf.fv,
                                nf.relax);
          lap(forcing);
          nf.attach(g);
        }
        solver_->step(nest->state(), dt / kNestRatio, g);
        lap(solver);
      }
      nest->feedback(parent);
      lap(nest_s);
    }
    t = now_s();
    tracker.update(nest ? nest->state() : parent,
                   m.sim_time() + SimSeconds(dt));
    lap(track);

    ShapeStats& st = stats_[shape];
    ++st.samples;
    st.forcing += forcing;
    st.solver += solver;
    st.nest += nest_s;
    st.tracker += track;
  }

  void fold_into(LayerTotals& out) const {
    for (const auto& [shape, st] : stats_) {
      out.weather_mpoints +=
          static_cast<double>(st.steps) *
          static_cast<double>(shape.pnx * shape.pny +
                              kNestRatio * shape.nnx * shape.nny) /
          1e6;
      if (st.samples == 0) continue;
      const double scale = static_cast<double>(st.steps) / st.samples;
      out.weather_forcing_s += st.forcing * scale;
      out.weather_solver_s += st.solver * scale;
      out.weather_nest_s += st.nest * scale;
      out.weather_tracker_s += st.tracker * scale;
    }
  }

 private:
  struct ShapeStats {
    std::int64_t steps = 0;
    int samples = 0;
    double forcing = 0.0, solver = 0.0, nest = 0.0, tracker = 0.0;
  };
  struct Forcing {
    explicit Forcing(const GridSpec& g)
        : q(g.nx(), g.ny()), fu(g.nx(), g.ny()), fv(g.nx(), g.ny()),
          relax(g.nx(), g.ny()) {}
    void attach(SwForcing& f) const {
      f.mass_tendency = &q;
      f.u_tendency = &fu;
      f.v_tendency = &fv;
      f.relaxation = &relax;
    }
    Field2D q, fu, fv, relax;
  };

  std::map<Shape, ShapeStats> stats_;
  // One solver for parent and nest, as WeatherModel has: its scratch
  // buffers are reused across both shapes.
  std::unique_ptr<SwSolver> solver_;
};

/// Encodes (and verifies) each frame's fields with the benchmark's own
/// prediction history, mirroring what SimulationProcess hands the codec.
class CodecShadow {
 public:
  explicit CodecShadow(CodecOptions options) : options_(options) {}

  void frame(const WeatherModel& m, LayerTotals& t) {
    std::vector<FieldView> fields;
    auto add = [&fields](const DomainState& s) {
      for (const Field2D* f : {&s.h, &s.u, &s.v}) {
        fields.push_back(FieldView{f->data().data(), f->nx(), f->ny()});
      }
    };
    add(m.parent_state());
    if (m.nest_active()) add(m.nest()->state());
    if (fields.size() > slots_.size()) slots_.resize(fields.size());

    for (std::size_t s = 0; s < fields.size(); ++s) {
      Slot& slot = slots_[s];
      const FieldView cur = fields[s];
      const FieldView prev{slot.prev.data(), slot.prev_nx, slot.prev_ny};
      const FieldView prev2{slot.prev2.data(), slot.prev2_nx, slot.prev2_ny};
      const FieldView* p1 = slot.prev.empty() ? nullptr : &prev;
      const FieldView* p2 = slot.prev2.empty() ? nullptr : &prev2;

      const double t0 = now_s();
      const CompressedFrame enc = encode_frame(cur, p1, p2, options_.precision);
      const double t1 = now_s();
      t.codec_encode_s += t1 - t0;
      if (options_.verify_roundtrip) {
        const std::vector<double> back = decode_frame(enc, p1, p2);
        t.codec_verify_s += now_s() - t1;
        if (back.size() != cur.count()) {
          throw std::logic_error("codec shadow: decoded size mismatch");
        }
      }
      raw_ += enc.raw_bytes();
      encoded_ += enc.encoded_bytes();
      t.codec_raw_bytes += static_cast<double>(enc.raw_bytes());
      t.codec_encoded_bytes += static_cast<double>(enc.encoded_bytes());

      slot.prev2 = std::move(slot.prev);
      slot.prev2_nx = slot.prev_nx;
      slot.prev2_ny = slot.prev_ny;
      slot.prev.assign(cur.data, cur.data + cur.count());
      slot.prev_nx = cur.nx;
      slot.prev_ny = cur.ny;
    }
    ++t.codec_frames;
  }

  /// Cumulative raw/encoded ratio, the quantity the run reports as
  /// ExperimentSummary::codec_mean_ratio.
  [[nodiscard]] double ratio() const {
    return raw_ == 0 || encoded_ == 0
               ? 1.0
               : static_cast<double>(raw_) / static_cast<double>(encoded_);
  }

 private:
  struct Slot {
    std::vector<double> prev, prev2;
    std::size_t prev_nx = 0, prev_ny = 0, prev2_nx = 0, prev2_ny = 0;
  };
  CodecOptions options_;
  std::vector<Slot> slots_;
  std::size_t raw_ = 0, encoded_ = 0;
};

/// Span log and layer totals of one experiment (or one explorer search).
class Recorder {
 public:
  Recorder(int experiment, double pass_t0)
      : experiment_(experiment), t0_(pass_t0) {}

  /// Opens the experiment's root span.
  int open(const char* name) {
    spans.push_back(Span{name, now_s() - t0_, 0.0, -1, experiment_});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int span) { spans[span].end = now_s() - t0_; }
  void add(const char* name, double start, double end, int parent) {
    spans.push_back(Span{name, start - t0_, end - t0_, parent, experiment_});
  }
  /// Runs `fn` as instrumentation: its time is excluded from the layers.
  template <class Fn>
  void instrument(Fn&& fn) {
    const double a = now_s();
    fn();
    const double b = now_s();
    totals.instrument_s += b - a;
    add("trace.instrument", a, b, root);
  }

  LayerTotals totals;
  std::vector<Span> spans;
  int root = -1;

 private:
  int experiment_;
  double t0_;
};

/// One classified, timed step_once() at a time.
class Stepper {
 public:
  Stepper(AdaptiveFramework& fw, Recorder& rec, WeatherSampler& weather,
          CodecShadow* codec)
      : fw_(fw), rec_(rec), weather_(weather), codec_(codec) {}

  bool step() {
    const SimulationProcess& proc = fw_.process();
    const WeatherModel* model0 = proc.model();
    const double sim0 = proc.sim_time().seconds();
    const int decisions0 = fw_.decisions_made();
    const std::int64_t saved0 = proc.codec_bytes_saved().count();
    const double ratio0 = proc.codec_last_ratio();
    const Shape shape0 = model0 ? shape_of(*model0) : Shape{};

    const double a = now_s();
    const bool more = fw_.step_once();
    const double b = now_s();

    const WeatherModel* model1 = proc.model();
    LayerTotals& t = rec_.totals;
    ++t.events;
    static const char* const weather_kind = "weather.step";
    const char* kind = weather_kind;
    if (model0 != nullptr && model1 != model0) {
      kind = "core.restart";
      ++t.restarts;
      t.restart_s += b - a;
    } else if (fw_.decisions_made() != decisions0) {
      kind = "core.decision";
      ++t.decisions;
      t.decision_s += b - a;
    } else if (proc.sim_time().seconds() != sim0) {
      ++t.weather_steps;
      t.weather_step_s += b - a;
      weather_.count_step(shape0);
    } else {
      kind = "core.other_event";
      t.other_event_s += b - a;
    }
    rec_.add(kind, a, b, rec_.root);

    if (codec_ != nullptr && model1 != nullptr &&
        (proc.codec_bytes_saved().count() != saved0 ||
         proc.codec_last_ratio() != ratio0)) {
      // The event encoded a frame from the model's current fields; the
      // codec ran inside the weather-step span, so its time moves from
      // weather to dataio.
      rec_.instrument([&] {
        const double before = t.codec_encode_s + t.codec_verify_s;
        codec_->frame(*model1, t);
        t.weather_step_s -= t.codec_encode_s + t.codec_verify_s - before;
      });
    }
    if (model1 != nullptr && kind == weather_kind &&
        weather_.wants_sample(shape_of(*model1))) {
      rec_.instrument([&] { weather_.sample(*model1); });
    }
    return more;
  }

 private:
  AdaptiveFramework& fw_;
  Recorder& rec_;
  WeatherSampler& weather_;
  CodecShadow* codec_;
};

struct CellOutcome {
  std::string digest;
  std::string problem;
  Recorder rec;
};

CellOutcome run_cell(const CampaignRun& cell, int index, double pass_t0) {
  CellOutcome out{"", "", Recorder(index, pass_t0)};
  Recorder& rec = out.rec;
  const double start = now_s();
  rec.root = rec.open(cell.label.c_str());
  try {
    ExperimentConfig cfg = cell.config;
    if (!cfg.log.has_level) cfg.log.set_level(LogLevel::kError);
    WeatherSampler weather;
    std::optional<CodecShadow> codec;
    if (cfg.codec.enabled) codec.emplace(cfg.codec);

    double a = now_s();
    AdaptiveFramework fw(cfg);
    fw.start_run();
    double b = now_s();
    rec.totals.run_setup_s += b - a;
    rec.add("core.run_setup", a, b, rec.root);

    Stepper stepper(fw, rec, weather, codec ? &*codec : nullptr);
    while (stepper.step()) {
    }

    a = now_s();
    const ExperimentResult result = fw.finish_run();
    b = now_s();
    rec.totals.run_setup_s += b - a;
    rec.add("core.run_finish", a, b, rec.root);

    rec.instrument([&] {
      weather.fold_into(rec.totals);
      out.digest = digest_result(result);
      out.problem = check_result(result);
      rec.totals.frames_sent += result.summary.frames_sent;
      rec.totals.retries += result.summary.transfer_retries;
      auto fail = [&out](const std::string& why) {
        out.problem += (out.problem.empty() ? "" : "; ") + why;
      };
      if (result.summary.restarts != rec.totals.restarts) {
        fail(format("traced restarts %lld != summary %d",
                    static_cast<long long>(rec.totals.restarts),
                    result.summary.restarts));
      }
      if (codec && codec->ratio() != result.summary.codec_mean_ratio) {
        fail(format("codec shadow ratio %.17g != run %.17g", codec->ratio(),
                    result.summary.codec_mean_ratio));
      }
    });
  } catch (const std::exception& e) {
    out.problem = std::string("threw: ") + e.what();
  }
  rec.close(rec.root);
  rec.totals.busy_s += now_s() - start - rec.totals.instrument_s;
  return out;
}

/// The explorer's depth-first search (src/explore/explorer.cpp) re-driven
/// through the public stepwise API so each event, snapshot, restore and
/// invariant check can be timed. Its report must equal the library
/// explorer's byte for byte; the traced run checks that.
class TracedWalk {
 public:
  TracedWalk(const ExperimentConfig& config, const ExploreSpec& spec,
             Recorder& rec)
      : config_(config), spec_(spec), rec_(rec) {}

  ExploreReport run() {
    std::unique_ptr<AdaptiveFramework> fw = timed_setup();
    Stepper stepper(*fw, rec_, weather_, nullptr);
    stepper_ = &stepper;
    ++report_.nodes_explored;
    check(*fw, {});
    dfs(*fw, {}, 0);
    rec_.instrument([&] { weather_.fold_into(rec_.totals); });
    return report_;
  }

 private:
  std::unique_ptr<AdaptiveFramework> timed_setup() {
    const double a = now_s();
    ExperimentConfig cfg = config_;
    if (!cfg.log.has_level) cfg.log.set_level(LogLevel::kError);
    auto fw = std::make_unique<AdaptiveFramework>(std::move(cfg));
    fw->start_run();
    const double b = now_s();
    rec_.totals.run_setup_s += b - a;
    rec_.add("core.run_setup", a, b, rec_.root);
    return fw;
  }

  template <class Fn>
  void timed(const char* name, double& acc, Fn&& fn) {
    const double a = now_s();
    fn();
    const double b = now_s();
    acc += b - a;
    rec_.add(name, a, b, rec_.root);
  }

  bool advance_to(AdaptiveFramework& fw, int target, const AdversaryPlan& plan) {
    while (fw.decisions_made() < target) {
      if (!stepper_->step()) return false;
      check(fw, plan);
    }
    return true;
  }

  void dfs(AdaptiveFramework& fw, const AdversaryPlan& plan, int depth) {
    if (depth >= spec_.max_depth) {
      while (stepper_->step()) check(fw, plan);
      evaluate_leaf(fw, plan);
      return;
    }
    if (spec_.prune && have_incumbent_ &&
        fw.process().sim_time() >= incumbent_) {
      ++report_.pruned;
      return;
    }
    std::optional<ExperimentState> state;
    timed("explore.snapshot", rec_.totals.snapshot_s,
          [&] { state = fw.snapshot(); });
    for (const auto& [none, action] : candidates(depth)) {
      if (report_.leaves_evaluated >= spec_.max_branches) {
        report_.branch_cap_hit = true;
        break;
      }
      AdversaryPlan next = plan;
      if (!none) next.push_back(action);
      timed("explore.restore", rec_.totals.restore_s, [&] {
        fw.restore(*state);
        if (!none) fw.set_adversary_plan(next);
      });
      ++report_.nodes_explored;
      if (!none) check(fw, next);
      if (advance_to(fw, depth + 2, next)) {
        dfs(fw, next, depth + 1);
      } else {
        evaluate_leaf(fw, next);
      }
    }
  }

  [[nodiscard]] std::vector<std::pair<bool, AdversaryAction>> candidates(
      int depth) const {
    std::vector<std::pair<bool, AdversaryAction>> out;
    if (spec_.include_none) out.push_back({true, {}});
    for (double m : spec_.bandwidth_drop_tiers) {
      out.push_back({false, {depth, AdversaryActionKind::kBandwidthDrop, m}});
    }
    for (double m : spec_.failure_burst_levels) {
      out.push_back({false, {depth, AdversaryActionKind::kFailureBurst, m}});
    }
    for (double m : spec_.disk_shock_fractions) {
      out.push_back({false, {depth, AdversaryActionKind::kDiskShock, m}});
    }
    return out;
  }

  void evaluate_leaf(AdaptiveFramework& fw, const AdversaryPlan& plan) {
    ++report_.leaves_evaluated;
    const SimSeconds progress = fw.process().sim_time();
    if (plan.empty()) report_.baseline_progress = progress;
    if (!have_incumbent_ || progress < incumbent_) {
      have_incumbent_ = true;
      incumbent_ = progress;
      report_.worst_progress = progress;
      report_.worst_plan = plan;
    }
    rec_.totals.frames_sent += fw.sender().frames_sent();
    rec_.totals.retries += fw.sender().transfer_retries();
  }

  void check(AdaptiveFramework& fw, const AdversaryPlan& plan) {
    timed("explore.check", rec_.totals.check_s, [&] { check_now(fw, plan); });
  }

  void check_now(AdaptiveFramework& fw, const AdversaryPlan& plan) {
    const std::vector<VisRecord>& recs = fw.vis().records();
    if (!recs.empty() &&
        recs.back().sequence != static_cast<std::int64_t>(recs.size()) - 1) {
      record(fw, plan, "frame-stream",
             format("record %zu carries sequence %lld", recs.size() - 1,
                    static_cast<long long>(recs.back().sequence)));
    }
    if (fw.disk().used() > fw.disk().capacity()) {
      record(fw, plan, "disk-cap",
             format("used %s exceeds capacity %s",
                    to_string(fw.disk().used()).c_str(),
                    to_string(fw.disk().capacity()).c_str()));
    }
    if (fw.config().algorithm == AlgorithmKind::kGreedyThreshold &&
        fw.process().stalled()) {
      record(fw, plan, "greedy-stall",
             format("simulation stalled at sim %.2f h",
                    fw.process().sim_time().as_hours()));
    }
    if (fw.config().algorithm == AlgorithmKind::kOptimization &&
        !fw.manager().decisions().empty()) {
      const Decision& d = fw.manager().decisions().back().decision;
      const DecisionBounds& b = fw.config().bounds;
      constexpr double kEps = 1e-6;
      if (d.output_interval.seconds() <
              b.min_output_interval.seconds() - kEps ||
          d.output_interval.seconds() >
              b.max_output_interval.seconds() + kEps) {
        record(fw, plan, "lp-bounds",
               format("decision OI %.2f min outside [%.2f, %.2f]",
                      d.output_interval.as_minutes(),
                      b.min_output_interval.as_minutes(),
                      b.max_output_interval.as_minutes()));
      }
    }
  }

  void record(AdaptiveFramework& fw, const AdversaryPlan& plan,
              const char* invariant, std::string detail) {
    const std::string key = std::string(invariant) + "|" + to_string(plan);
    if (!seen_.insert(key).second) return;
    Violation v;
    v.invariant = invariant;
    v.detail = std::move(detail);
    v.plan = plan;
    v.wall = fw.queue().now();
    report_.violations.push_back(std::move(v));
  }

  const ExperimentConfig& config_;
  const ExploreSpec& spec_;
  Recorder& rec_;
  WeatherSampler weather_;
  Stepper* stepper_ = nullptr;
  ExploreReport report_;
  bool have_incumbent_ = false;
  SimSeconds incumbent_{std::numeric_limits<double>::infinity()};
  std::set<std::string> seen_;
};

}  // namespace

TracedPass run_traced_pass(const Workload& w) {
  TracedPass pass;
  const double t0 = now_s();
  const double cpu0 = process_cpu_s();
  std::vector<std::optional<CellOutcome>> outcomes;

  if (w.kind == WorkloadKind::kExplore) {
    outcomes.emplace_back(CellOutcome{"", "", Recorder(0, t0)});
    CellOutcome& out = *outcomes.back();
    Recorder& rec = out.rec;
    const double start = now_s();
    rec.root = rec.open("explore.search");
    try {
      const ExploreReport report =
          TracedWalk(w.explore_config, w.explore_spec, rec).run();
      out.digest = to_string(report);
      out.problem = check_explore(report);
      rec.totals.explore_nodes = report.nodes_explored;
      rec.totals.explore_leaves = report.leaves_evaluated;
      rec.totals.explore_pruned = report.pruned;
    } catch (const std::exception& e) {
      out.problem = std::string("threw: ") + e.what();
    }
    rec.close(rec.root);
    rec.totals.busy_s += now_s() - start - rec.totals.instrument_s;
  } else {
    // Closed loop: each of K slots takes the next cell in grid order as
    // soon as its previous experiment ends, as CampaignRunner's pool does.
    outcomes.resize(w.cells.size());
    std::atomic<std::size_t> next{0};
    auto slot = [&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= w.cells.size()) break;
        outcomes[i].emplace(run_cell(w.cells[i], static_cast<int>(i), t0));
      }
    };
    if (w.kind == WorkloadKind::kSequential) {
      slot();
    } else {
      std::vector<std::thread> threads;
      for (int k = 0; k < w.concurrency; ++k) threads.emplace_back(slot);
      for (std::thread& th : threads) th.join();
    }
  }

  pass.wall_s = now_s() - t0;
  pass.cpu_s = process_cpu_s() - cpu0;
  for (std::optional<CellOutcome>& out : outcomes) {
    pass.results.push_back(out->digest);
    pass.problems.push_back(out->problem);
    pass.totals.add(out->rec.totals);
    pass.spans.push_back(std::move(out->rec.spans));
  }
  return pass;
}

void write_spans(const std::string& path, const TracedPass& pass) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "experiment,span,parent,name,start_s,end_s\n";
  for (const std::vector<Span>& spans : pass.spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << s.experiment << ',' << i << ',' << s.parent << ',' << s.name
          << ',' << format("%.9f,%.9f", s.start, s.end) << '\n';
    }
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace perfbench
