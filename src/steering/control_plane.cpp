#include "steering/control_plane.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace adaptviz {

namespace {

// Free-form strings travel percent-encoded and doubles as hexfloats
// (util/wire.hpp), so every value of a log line is a JSON string that needs
// no escaping and survives the round trip byte-exactly.
using wire::decode_double;
using wire::encode_double;
using wire::percent_decode;
using wire::percent_encode;

/// Writer for the flat all-strings JSON object a log line is.
class LineWriter {
 public:
  void raw(const char* key, const std::string& value) {
    out_ += out_.empty() ? '{' : ',';
    out_ += wire::json_quote(key);
    out_ += ':';
    out_ += wire::json_quote(value);
  }
  void str(const char* key, const std::string& value) {
    raw(key, percent_encode(value));
  }
  void num(const char* key, double value) { raw(key, encode_double(value)); }
  [[nodiscard]] std::string finish() { return out_ + "}"; }

 private:
  std::string out_;
};

/// Parses one log line into a key -> raw (still-encoded) value map. The
/// line must be a JSON object whose values are all strings; the reader
/// already rejects duplicate keys.
std::map<std::string, std::string> parse_line(const std::string& line) {
  wire::JsonValue root;
  try {
    root = wire::parse_json(line);
  } catch (const wire::WireError& e) {
    throw std::runtime_error(std::string("steering log: ") + e.what() +
                             " in '" + line + "'");
  }
  if (root.kind != wire::JsonValue::Kind::kObject) {
    throw std::runtime_error("steering log: not a JSON object: '" + line +
                             "'");
  }
  std::map<std::string, std::string> out;
  for (auto& [key, value] : root.object) {
    if (value.kind != wire::JsonValue::Kind::kString) {
      throw std::runtime_error("steering log: non-string value for '" + key +
                               "' in '" + line + "'");
    }
    out.emplace(key, std::move(value.string));
  }
  return out;
}

SteeringCommand::Kind command_kind_from(const std::string& name) {
  if (name == "set-output-bounds") return SteeringCommand::Kind::kSetOutputBounds;
  if (name == "set-resolution-floor") {
    return SteeringCommand::Kind::kSetResolutionFloor;
  }
  if (name == "set-nest-extent") return SteeringCommand::Kind::kSetNestExtent;
  if (name == "pause") return SteeringCommand::Kind::kPause;
  if (name == "resume") return SteeringCommand::Kind::kResume;
  throw std::runtime_error("steering log: unknown command kind '" + name +
                           "'");
}

}  // namespace

void validate(const ViewCommand& view) {
  if (view.field.empty()) {
    throw std::invalid_argument("view command: empty field");
  }
  if (view.colormap.empty()) {
    throw std::invalid_argument("view command: empty colormap");
  }
  if (!(view.zoom > 0.0)) {
    throw std::invalid_argument("view command: zoom must be > 0");
  }
  if (view.center_lat < -90.0 || view.center_lat > 90.0) {
    throw std::invalid_argument("view command: center_lat outside [-90, 90]");
  }
  if (view.center_lon < -180.0 || view.center_lon > 180.0) {
    throw std::invalid_argument(
        "view command: center_lon outside [-180, 180]");
  }
}

std::string view_key(const ViewCommand& view) {
  static const ViewCommand kDefault{};
  if (view.field == kDefault.field && view.colormap == kDefault.colormap &&
      view.zoom == kDefault.zoom && view.center_lat == kDefault.center_lat &&
      view.center_lon == kDefault.center_lon) {
    return "";
  }
  // Hexfloats: views equal bit-for-bit share a render, nothing else does.
  return percent_encode(view.field) + "/" + percent_encode(view.colormap) +
         "/" + encode_double(view.zoom) + "/" +
         encode_double(view.center_lat) + "/" +
         encode_double(view.center_lon);
}

void validate(const KnobProposal& proposal) {
  if (proposal.max_output_interval.seconds() < 0) {
    throw std::invalid_argument(
        "knob proposal: negative max_output_interval");
  }
  if (proposal.resolution_floor_km < 0) {
    throw std::invalid_argument("knob proposal: negative resolution_floor_km");
  }
}

void validate(const ObserverSpec& spec) {
  if (spec.mode != "live-tail" && spec.mode != "catch-up") {
    throw std::invalid_argument("observer spec: mode must be live-tail or "
                                "catch-up, got '" +
                                spec.mode + "'");
  }
  if (!(spec.downlink_mbps > 0.0)) {
    throw std::invalid_argument("observer spec: downlink_mbps must be > 0");
  }
  if (spec.catchup_start_hours < 0.0) {
    throw std::invalid_argument(
        "observer spec: negative catchup_start_hours");
  }
}

const char* to_string(SteeringEvent::Type type) {
  switch (type) {
    case SteeringEvent::Type::kCommand:
      return "command";
    case SteeringEvent::Type::kView:
      return "view";
    case SteeringEvent::Type::kProposal:
      return "proposal";
    case SteeringEvent::Type::kAttach:
      return "attach";
    case SteeringEvent::Type::kDetach:
      return "detach";
  }
  return "?";
}

SteeringEvent::Type steering_event_type_from(const std::string& name) {
  if (name == "command") return SteeringEvent::Type::kCommand;
  if (name == "view") return SteeringEvent::Type::kView;
  if (name == "proposal") return SteeringEvent::Type::kProposal;
  if (name == "attach") return SteeringEvent::Type::kAttach;
  if (name == "detach") return SteeringEvent::Type::kDetach;
  throw std::runtime_error("steering log: unknown event type '" + name + "'");
}

void validate(const SteeringEvent& event) {
  if (event.wall.seconds() < 0) {
    throw std::invalid_argument("steering event: negative wall time");
  }
  switch (event.type) {
    case SteeringEvent::Type::kCommand:
      validate(event.command);
      break;
    case SteeringEvent::Type::kView:
      validate(event.view);
      break;
    case SteeringEvent::Type::kProposal:
      validate(event.proposal);
      break;
    case SteeringEvent::Type::kAttach:
      if (event.client.empty()) {
        throw std::invalid_argument("steering event: attach needs a client");
      }
      validate(event.attach);
      break;
    case SteeringEvent::Type::kDetach:
      if (event.client.empty()) {
        throw std::invalid_argument("steering event: detach needs a client");
      }
      break;
  }
}

std::string to_jsonl(const SteeringEvent& e) {
  LineWriter w;
  w.num("wall", e.wall.seconds());
  w.str("client", e.client);
  w.raw("type", to_string(e.type));
  switch (e.type) {
    case SteeringEvent::Type::kCommand:
      w.raw("kind", to_string(e.command.kind));
      w.num("bounds_min_s", e.command.bounds.min_output_interval.seconds());
      w.num("bounds_max_s", e.command.bounds.max_output_interval.seconds());
      w.num("floor_km", e.command.resolution_floor_km);
      w.num("nest_deg", e.command.nest_extent_deg);
      w.num("auto_resume_s", e.command.auto_resume_after.seconds());
      w.str("reason", e.command.reason);
      break;
    case SteeringEvent::Type::kView:
      w.str("field", e.view.field);
      w.str("colormap", e.view.colormap);
      w.num("zoom", e.view.zoom);
      w.num("lat", e.view.center_lat);
      w.num("lon", e.view.center_lon);
      break;
    case SteeringEvent::Type::kProposal:
      w.num("max_oi_s", e.proposal.max_output_interval.seconds());
      w.num("floor_km", e.proposal.resolution_floor_km);
      w.str("reason", e.proposal.reason);
      break;
    case SteeringEvent::Type::kAttach:
      w.raw("mode", e.attach.mode);
      w.num("downlink_mbps", e.attach.downlink_mbps);
      w.num("catchup_start_h", e.attach.catchup_start_hours);
      break;
    case SteeringEvent::Type::kDetach:
      break;
  }
  return w.finish();
}

SteeringEvent steering_event_from_jsonl(const std::string& line) {
  std::map<std::string, std::string> kv = parse_line(line);
  auto take = [&](const char* key) {
    auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::runtime_error(std::string("steering log: missing key '") +
                               key + "' in '" + line + "'");
    }
    std::string v = std::move(it->second);
    kv.erase(it);
    return v;
  };
  SteeringEvent e;
  e.wall = WallSeconds(decode_double(take("wall")));
  e.client = percent_decode(take("client"));
  e.type = steering_event_type_from(take("type"));
  switch (e.type) {
    case SteeringEvent::Type::kCommand:
      e.command.kind = command_kind_from(take("kind"));
      e.command.bounds.min_output_interval =
          SimSeconds(decode_double(take("bounds_min_s")));
      e.command.bounds.max_output_interval =
          SimSeconds(decode_double(take("bounds_max_s")));
      e.command.resolution_floor_km = decode_double(take("floor_km"));
      e.command.nest_extent_deg = decode_double(take("nest_deg"));
      e.command.auto_resume_after =
          WallSeconds(decode_double(take("auto_resume_s")));
      e.command.reason = percent_decode(take("reason"));
      break;
    case SteeringEvent::Type::kView:
      e.view.field = percent_decode(take("field"));
      e.view.colormap = percent_decode(take("colormap"));
      e.view.zoom = decode_double(take("zoom"));
      e.view.center_lat = decode_double(take("lat"));
      e.view.center_lon = decode_double(take("lon"));
      break;
    case SteeringEvent::Type::kProposal:
      e.proposal.max_output_interval =
          SimSeconds(decode_double(take("max_oi_s")));
      e.proposal.resolution_floor_km = decode_double(take("floor_km"));
      e.proposal.reason = percent_decode(take("reason"));
      break;
    case SteeringEvent::Type::kAttach:
      e.attach.mode = take("mode");
      e.attach.downlink_mbps = decode_double(take("downlink_mbps"));
      e.attach.catchup_start_hours = decode_double(take("catchup_start_h"));
      break;
    case SteeringEvent::Type::kDetach:
      break;
  }
  if (!kv.empty()) {
    throw std::runtime_error("steering log: unknown key '" +
                             kv.begin()->first + "' in '" + line + "'");
  }
  return e;
}

void save_steering_log(const std::string& path,
                       const std::vector<SteeringEvent>& events) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("steering log: cannot write '" + path + "'");
  }
  for (const SteeringEvent& e : events) out << to_jsonl(e) << "\n";
  out.flush();
  if (!out) {
    throw std::runtime_error("steering log: write failed for '" + path + "'");
  }
}

std::vector<SteeringEvent> load_steering_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("steering log: cannot read '" + path + "'");
  }
  std::vector<SteeringEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.push_back(steering_event_from_jsonl(line));
  }
  return out;
}

// ---- LocalControlPlane ----

LocalControlPlane::LocalControlPlane(EventQueue& queue, WallSeconds latency,
                                     ApplyFn apply)
    : queue_(queue), latency_(latency), apply_(std::move(apply)) {
  if (!apply_) {
    throw std::invalid_argument("LocalControlPlane: null apply fn");
  }
  if (latency_.seconds() < 0) {
    throw std::invalid_argument("LocalControlPlane: negative latency");
  }
}

ControlPlane::RunId LocalControlPlane::register_run(const std::string& label) {
  if (registered_) {
    throw std::invalid_argument(
        "LocalControlPlane: already fronting run '" + label_ + "'");
  }
  label_ = label;
  registered_ = true;
  return 0;
}

void LocalControlPlane::deregister_run(RunId) { registered_ = false; }

ClientId LocalControlPlane::attach(RunId run, const std::string& client,
                                   const ObserverSpec& spec) {
  SteeringEvent e;
  e.client = client;
  e.type = SteeringEvent::Type::kAttach;
  e.attach = spec;
  steer(run, std::move(e));
  names_.push_back(client);
  return ClientId{static_cast<std::int64_t>(names_.size()) - 1};
}

void LocalControlPlane::detach(RunId run, ClientId client) {
  if (client.value < 0 ||
      client.value >= static_cast<std::int64_t>(names_.size())) {
    throw std::invalid_argument("LocalControlPlane: unknown client id " +
                                std::to_string(client.value));
  }
  SteeringEvent e;
  e.client = names_[static_cast<std::size_t>(client.value)];
  e.type = SteeringEvent::Type::kDetach;
  steer(run, std::move(e));
}

void LocalControlPlane::steer(RunId, SteeringEvent event) {
  validate(event);
  ++sent_;
  // event.wall on an inbound event is an earliest-apply request; the
  // channel latency always applies on top of "now".
  WallSeconds deliver_at =
      std::max(queue_.now(), event.wall) + latency_;
  schedule_apply(deliver_at, std::move(event));
}

void LocalControlPlane::send_command(SteeringCommand command,
                                     WallSeconds extra_delay) {
  if (extra_delay.seconds() < 0) {
    throw std::invalid_argument("control plane: negative delay");
  }
  validate(command);
  ++sent_;
  ADAPTVIZ_LOG_INFO("steering", "[%s] %s queued (%s)",
                    hh_mm(queue_.now()).c_str(), to_string(command.kind),
                    command.reason.c_str());
  SteeringEvent e;
  e.type = SteeringEvent::Type::kCommand;
  e.command = std::move(command);
  schedule_apply(queue_.now() + extra_delay + latency_, std::move(e));
}

void LocalControlPlane::schedule_apply(WallSeconds at, SteeringEvent event) {
  if (at < last_delivery_) at = last_delivery_;  // in order
  last_delivery_ = at;
  event.wall = at;
  queue_.schedule_at(
      at,
      [this, event = std::move(event)] {
        ++applied_;
        apply_(event);
      },
      "steering.deliver");
}

void LocalControlPlane::schedule_replay(const SteeringEvent& event) {
  validate(event);
  ++sent_;
  queue_.schedule_at(
      event.wall,
      [this, event] {
        ++applied_;
        apply_(event);
      },
      "steering.replay");
}

void LocalControlPlane::observe(RunId, const SteeringObservation& obs) {
  for (const auto& sink : sinks_) sink(obs);
}

void LocalControlPlane::add_observation_sink(
    std::function<void(const SteeringObservation&)> sink) {
  sinks_.push_back(std::move(sink));
}

}  // namespace adaptviz
