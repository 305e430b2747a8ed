#include "core/simulation_process.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace adaptviz {

SimulationProcess::SimulationProcess(
    EventQueue& queue, GroundTruthMachine& machine, DiskModel& disk,
    FrameCatalog& catalog, FrameSender& sender,
    const ApplicationConfiguration& shared_config, Options options,
    Callbacks callbacks)
    : queue_(queue),
      machine_(machine),
      disk_(disk),
      catalog_(catalog),
      sender_(sender),
      config_(shared_config),
      options_(options),
      callbacks_(std::move(callbacks)) {
  if (options_.stall_poll.seconds() <= 0) {
    throw std::invalid_argument("SimulationProcess: stall_poll must be > 0");
  }
  if (options_.codec.enabled) {
    codec_ = std::make_unique<FrameFieldCodec>(options_.codec);
  }
}

SimSeconds SimulationProcess::sim_time() const {
  return model_ ? model_->sim_time() : SimSeconds(0.0);
}

WallSeconds SimulationProcess::total_stall_time() const {
  WallSeconds total = stall_time_;
  if (stalled_) total += queue_.now() - stall_started_;
  return total;
}

void SimulationProcess::start(std::unique_ptr<WeatherModel> model) {
  if (running_) {
    throw std::logic_error("SimulationProcess: already running");
  }
  if (!model) throw std::invalid_argument("SimulationProcess: null model");
  model_ = std::move(model);
  running_ = true;
  stalled_ = false;
  finished_ = false;
  pending_encoded_.reset();
  launch_processors_ = config_.processors;
  launch_output_interval_ = config_.output_interval;
  last_signaled_resolution_ = model_->recommended_resolution_km();
  next_output_due_ = model_->sim_time() + launch_output_interval_;
  ADAPTVIZ_LOG_INFO("simulation",
                    "started: %d procs, OI=%.1f sim-min, res=%.1f km",
                    config_.processors,
                    config_.output_interval.as_minutes(),
                    model_->modeled_resolution_km());
  schedule_step();
}

void SimulationProcess::request_stop(std::function<void(NclFile)> stopped) {
  if (!stopped) throw std::invalid_argument("request_stop: null callback");
  if (stop_pending()) {
    throw std::logic_error("SimulationProcess: stop already pending");
  }
  stop_callback_ = std::move(stopped);
  if (!running_ || finished_) {
    deliver_stop();
    return;
  }
  // A step in flight completes first; an idle/stalled process is collected
  // at its next poll. Nothing to do here — the loops check stop_pending().
}

void SimulationProcess::deliver_stop() {
  running_ = false;
  auto cb = std::move(stop_callback_);
  stop_callback_ = nullptr;
  if (!model_) {
    throw std::logic_error("SimulationProcess: stop without a model");
  }
  ADAPTVIZ_LOG_INFO("simulation", "stopped at sim %.1f h (checkpointing)",
                    model_->sim_time().as_hours());
  cb(model_->checkpoint());
}

void SimulationProcess::schedule_step() {
  if (stop_pending()) {
    deliver_stop();
    return;
  }
  if (finished_ || !running_) return;
  if (config_.critical || config_.paused) {
    enter_stall(config_.critical ? "CRITICAL flag set" : "paused by steering");
    return;
  }
  step_in_flight_ = true;
  const WallSeconds cost = machine_.step_time(
      std::max(1, launch_processors_), model_->work_units());
  queue_.schedule_after(
      cost, [this] { complete_step(); }, "simulation.step");
}

void SimulationProcess::complete_step() {
  step_in_flight_ = false;
  model_->step();
  ++steps_;

  if (model_->resolution_change_pending()) {
    const double rec = model_->recommended_resolution_km();
    if (rec < last_signaled_resolution_ - 1e-9 &&
        callbacks_.on_resolution_signal) {
      last_signaled_resolution_ = rec;
      ADAPTVIZ_LOG_INFO("simulation",
                        "pressure %.1f hPa: signalling resolution %.1f km",
                        model_->min_pressure_hpa(), rec);
      callbacks_.on_resolution_signal(rec);
    }
  }

  if (model_->sim_time() >= next_output_due_ - SimSeconds(1e-6)) {
    try_write_frame();
    return;
  }
  finish_or_continue();
}

Bytes SimulationProcess::encode_pending_frame(Bytes raw) {
  // The codec runs on the real compute-grid fields; the measured ratio then
  // scales the *modeled* frame bytes (frame_bytes() models the full 18-var,
  // 27-level WRF output the h/u/v fields stand in for).
  std::vector<FieldView> fields;
  const DomainState& p = model_->parent_state();
  fields.push_back(FieldView{p.h.data().data(), p.h.nx(), p.h.ny()});
  fields.push_back(FieldView{p.u.data().data(), p.u.nx(), p.u.ny()});
  fields.push_back(FieldView{p.v.data().data(), p.v.nx(), p.v.ny()});
  if (model_->nest_active()) {
    const DomainState& n = model_->nest()->state();
    fields.push_back(FieldView{n.h.data().data(), n.h.nx(), n.h.ny()});
    fields.push_back(FieldView{n.u.data().data(), n.u.nx(), n.u.ny()});
    fields.push_back(FieldView{n.v.data().data(), n.v.nx(), n.v.ny()});
  }
  const CodecFrameReport report = codec_->encode_frame_fields(fields);
  const double ratio = report.ratio();
  const Bytes encoded(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(raw.as_double() / ratio))));
  codec_saved_ += raw - encoded;
  obs::count("codec.frames");
  obs::count("codec.bytes_raw", raw.count());
  obs::count("codec.bytes_encoded", encoded.count());
  obs::count("codec.bytes_saved", (raw - encoded).count());
  obs::observe("codec.ratio", ratio);
  return encoded;
}

void SimulationProcess::try_write_frame() {
  const Bytes raw = model_->frame_bytes();
  Bytes size = raw;
  if (codec_) {
    // Encode exactly once per output: a disk-full stall retries this frame
    // without re-rotating the codec's history.
    if (!pending_encoded_.has_value()) {
      pending_encoded_ = encode_pending_frame(raw);
    }
    size = *pending_encoded_;
  }
  if (!disk_.allocate(size)) {
    enter_stall("disk full");
    return;
  }
  const WallSeconds tio = disk_.write_time(size);
  queue_.schedule_after(
      tio,
      [this, size, raw] {
        pending_encoded_.reset();
        Frame frame;
        frame.sequence = next_sequence_++;
        frame.sim_time = model_->sim_time();
        frame.resolution_km = model_->modeled_resolution_km();
        frame.min_pressure_hpa = model_->min_pressure_hpa();
        frame.nest_active = model_->nest_active();
        frame.size = size;
        if (codec_) frame.raw_size = raw;
        if (options_.keep_payloads) {
          frame.payload = std::make_shared<NclFile>(model_->make_frame());
        }
        catalog_.push(std::move(frame));
        sender_.kick();
        ++frames_;
        next_output_due_ += launch_output_interval_;
        finish_or_continue();
      },
      "simulation.write_frame");
}

void SimulationProcess::enter_stall(const char* reason) {
  if (!stalled_) {
    stalled_ = true;
    stall_started_ = queue_.now();
    ADAPTVIZ_LOG_WARN("simulation", "stalled at wall %s: %s",
                      hh_mm(queue_.now()).c_str(), reason);
  }
  queue_.schedule_after(
      options_.stall_poll, [this] { stall_check(); }, "simulation.stall");
}

void SimulationProcess::stall_check() {
  if (!stalled_) return;
  if (stop_pending()) {
    stall_time_ += queue_.now() - stall_started_;
    stalled_ = false;
    deliver_stop();
    return;
  }
  if (config_.critical || config_.paused) {
    queue_.schedule_after(
        options_.stall_poll, [this] { stall_check(); }, "simulation.stall");
    return;
  }
  // Flag cleared: leave the stall and resume where we left off.
  stall_time_ += queue_.now() - stall_started_;
  stalled_ = false;
  ADAPTVIZ_LOG_INFO("simulation", "resuming after %.1f min stall",
                    (queue_.now() - stall_started_).seconds() / 60.0);
  if (model_->sim_time() >= next_output_due_ - SimSeconds(1e-6)) {
    try_write_frame();
  } else {
    schedule_step();
  }
}

void SimulationProcess::finish_or_continue() {
  if (model_->sim_time() >= options_.end_time) {
    finished_ = true;
    running_ = false;
    ADAPTVIZ_LOG_INFO("simulation", "finished at wall %s",
                      hh_mm(queue_.now()).c_str());
    if (stop_pending()) {
      // A restart raced completion; honour the stop contract anyway.
      auto cb = std::move(stop_callback_);
      stop_callback_ = nullptr;
      cb(model_->checkpoint());
      return;
    }
    if (callbacks_.on_finished) callbacks_.on_finished();
    return;
  }
  schedule_step();
}

SimulationProcess::State SimulationProcess::snapshot() const {
  State s;
  if (model_) s.model = std::make_shared<const WeatherModel>(*model_);
  if (codec_) s.codec = std::make_shared<const FrameFieldCodec>(*codec_);
  s.codec_saved = codec_saved_;
  s.pending_encoded = pending_encoded_;
  s.running = running_;
  s.stalled = stalled_;
  s.finished = finished_;
  s.step_in_flight = step_in_flight_;
  s.stop_callback = stop_callback_;
  s.launch_processors = launch_processors_;
  s.launch_output_interval = launch_output_interval_;
  s.next_output_due = next_output_due_;
  s.next_sequence = next_sequence_;
  s.last_signaled_resolution = last_signaled_resolution_;
  s.steps = steps_;
  s.frames = frames_;
  s.stall_time = stall_time_;
  s.stall_started = stall_started_;
  return s;
}

void SimulationProcess::restore(const State& s) {
  model_ = s.model ? std::make_unique<WeatherModel>(*s.model) : nullptr;
  codec_ = s.codec ? std::make_unique<FrameFieldCodec>(*s.codec) : nullptr;
  codec_saved_ = s.codec_saved;
  pending_encoded_ = s.pending_encoded;
  running_ = s.running;
  stalled_ = s.stalled;
  finished_ = s.finished;
  step_in_flight_ = s.step_in_flight;
  stop_callback_ = s.stop_callback;
  launch_processors_ = s.launch_processors;
  launch_output_interval_ = s.launch_output_interval;
  next_output_due_ = s.next_output_due;
  next_sequence_ = s.next_sequence;
  last_signaled_resolution_ = s.last_signaled_resolution;
  steps_ = s.steps;
  frames_ = s.frames;
  stall_time_ = s.stall_time;
  stall_started_ = s.stall_started;
}

}  // namespace adaptviz
