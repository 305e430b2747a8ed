// Traced pass: drives every experiment through the stepwise API
// (start_run / step_once / finish_run) and splits its host time by layer,
// timed from outside the program.
//
//  * Each step_once() is one span, classified by the public state it moved:
//    a changed process().model() pointer is a restart, a new decision is a
//    decision, advanced process().sim_time() is a weather step, anything
//    else is another event.
//  * The weather sub-layers (forcing, solver, nest, tracker) are timed on
//    copies of the live model's state, a few samples per grid shape, and
//    scaled by the number of weather steps run at that shape.
//  * The codec is timed by encoding (and, with verify_roundtrip, decoding)
//    the fields of every frame the run encodes, against the benchmark's own
//    prediction history.
// Copy and shadow work runs between spans and is reported as
// trace.instrument_s, never as layer time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Host seconds and counts per layer, summed over a pass.
struct LayerTotals {
  double weather_step_s = 0.0;  // weather-step events, codec time removed
  std::int64_t weather_steps = 0;
  double weather_forcing_s = 0.0;
  double weather_solver_s = 0.0;
  double weather_nest_s = 0.0;
  double weather_tracker_s = 0.0;
  double weather_mpoints = 0.0;  // million compute-grid point updates

  std::int64_t codec_frames = 0;
  double codec_encode_s = 0.0;
  double codec_verify_s = 0.0;
  double codec_raw_bytes = 0.0;
  double codec_encoded_bytes = 0.0;

  std::int64_t events = 0;
  std::int64_t decisions = 0;
  double decision_s = 0.0;
  std::int64_t restarts = 0;
  double restart_s = 0.0;
  double other_event_s = 0.0;
  double run_setup_s = 0.0;  // construction + start_run + finish_run

  std::int64_t explore_nodes = 0;
  std::int64_t explore_leaves = 0;
  std::int64_t explore_pruned = 0;
  double snapshot_s = 0.0;
  double restore_s = 0.0;  // restore() + set_adversary_plan()
  double check_s = 0.0;    // the search's invariant checks

  std::int64_t frames_sent = 0;
  std::int64_t retries = 0;

  double instrument_s = 0.0;  // copy/shadow work between spans
  double busy_s = 0.0;        // experiment thread time, instrument_s removed

  /// Sum of every named layer's seconds (the attributed host time).
  [[nodiscard]] double attributed_s() const;
  void add(const LayerTotals& o);
};

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds since the pass started
  double end = 0.0;
  std::int32_t parent = -1;  // index within the same experiment, -1 = root
  std::int32_t experiment = 0;
};

struct TracedPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Per experiment (grid order) its digest; for the explorer, the report.
  std::vector<std::string> results;
  /// Per operation its output-check or self-check failure; empty = passed.
  std::vector<std::string> problems;
  LayerTotals totals;
  std::vector<std::vector<Span>> spans;  // one vector per experiment
};

TracedPass run_traced_pass(const Workload& w);

/// Writes the spans as CSV: experiment, span, parent, name, start_s, end_s.
void write_spans(const std::string& path, const TracedPass& pass);

}  // namespace perfbench
