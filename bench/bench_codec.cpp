// Codec bench: compression ratio and throughput of the lossless frame
// codec on *real* simulation frames at the paper's Fig. 5 output cadence.
//
// Drives the Fig-5 model configuration (24 km modeled parent, compute
// scale 8), lets the cyclone spin up, then feeds consecutive frames at a
// 3-minute output interval through FrameFieldCodec exactly as the
// simulation process does (parent + nest h/u/v, roundtrip verified).
// Asserts a cumulative ratio >= 2.0x at the 3-minute cadence; the full
// run also sweeps the coarser Fig-5 intervals (report-only — temporal
// deltas decay as frames grow further apart).
//
// Every payload is also folded into an FNV-1a digest of the 3-minute cell.
// The run fails unless it equals kQuickPayloadDigest (--quick) or
// kFullPayloadDigest, both captured from the exhaustive encoder (every
// candidate fully coded), so an encoder change that moves one payload byte
// or one chosen mode fails the bench.
//
// Encode and decode throughput are timed here, around encode_frame and
// decode_frame calls on the same fields and history, not read from the
// codec's own instrumentation.
//
// Writes BENCH_codec.json ({bench, scenario, metric, value, unit} rows);
// --json=PATH overrides, --quick shrinks the frame count for CI smokes.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "dataio/codec.hpp"
#include "weather/model.hpp"

namespace {

using namespace adaptviz;

constexpr std::uint64_t kQuickPayloadDigest = 0x141b9b8b35ebbc90ull;
constexpr std::uint64_t kFullPayloadDigest = 0x44f790a86bd26deeull;

ModelConfig fig5_config() {
  ModelConfig config;
  config.base_resolution_km = 24.0;
  config.compute_scale = 8.0;
  return config;
}

void collect_fields(const WeatherModel& model,
                    std::vector<FieldView>& fields) {
  fields.clear();
  const DomainState& p = model.parent_state();
  fields.push_back(FieldView{p.h.data().data(), p.h.nx(), p.h.ny()});
  fields.push_back(FieldView{p.u.data().data(), p.u.nx(), p.u.ny()});
  fields.push_back(FieldView{p.v.data().data(), p.v.nx(), p.v.ny()});
  if (model.nest_active()) {
    const DomainState& n = model.nest()->state();
    fields.push_back(FieldView{n.h.data().data(), n.h.nx(), n.h.ny()});
    fields.push_back(FieldView{n.u.data().data(), n.u.nx(), n.u.ny()});
    fields.push_back(FieldView{n.v.data().data(), n.v.nx(), n.v.ny()});
  }
}

struct OiResult {
  double ratio = 0.0;
  double encode_mb_s = 0.0;
  double decode_mb_s = 0.0;
  int frames = 0;
  std::uint64_t payload_digest = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Encodes each frame's fields with encode_frame against the same two-frame
/// history FrameFieldCodec keeps, decodes them again, and times both calls,
/// folding every payload into an FNV-1a digest. FrameFieldCodec does not
/// expose its payloads; matching its encoded byte total ties this replay to
/// what it coded.
class PayloadDigest {
 public:
  void add_frame(const std::vector<FieldView>& fields) {
    if (fields.size() > slots_.size()) slots_.resize(fields.size());
    for (std::size_t s = 0; s < fields.size(); ++s) {
      Slot& slot = slots_[s];
      const FieldView cur = fields[s];
      const FieldView prev{slot.prev.data(), slot.prev_nx, slot.prev_ny};
      const FieldView prev2{slot.prev2.data(), slot.prev2_nx, slot.prev2_ny};
      const FieldView* p1 = slot.prev.empty() ? nullptr : &prev;
      const FieldView* p2 = slot.prev2.empty() ? nullptr : &prev2;
      const auto t0 = std::chrono::steady_clock::now();
      const CompressedFrame enc = encode_frame(cur, p1, p2);
      encode_seconds_ += seconds_since(t0);
      const auto t1 = std::chrono::steady_clock::now();
      const std::vector<double> back = decode_frame(enc, p1, p2);
      decode_seconds_ += seconds_since(t1);
      if (back.size() != cur.count()) {
        std::fprintf(stderr, "FAIL: decoded %zu values, encoded %zu\n",
                     back.size(), cur.count());
        std::exit(1);
      }
      for (const std::uint8_t b : enc.payload) {
        digest_ ^= b;
        digest_ *= 1099511628211ull;
      }
      encoded_bytes_ += enc.encoded_bytes();
      slot.prev2 = std::move(slot.prev);
      slot.prev2_nx = slot.prev_nx;
      slot.prev2_ny = slot.prev_ny;
      slot.prev.assign(cur.data, cur.data + cur.count());
      slot.prev_nx = cur.nx;
      slot.prev_ny = cur.ny;
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::size_t encoded_bytes() const { return encoded_bytes_; }
  [[nodiscard]] double encode_seconds() const { return encode_seconds_; }
  [[nodiscard]] double decode_seconds() const { return decode_seconds_; }

 private:
  struct Slot {
    std::vector<double> prev, prev2;
    std::size_t prev_nx = 0, prev_ny = 0;
    std::size_t prev2_nx = 0, prev2_ny = 0;
  };
  std::vector<Slot> slots_;
  std::uint64_t digest_ = 1469598103934665603ull;
  std::size_t encoded_bytes_ = 0;
  double encode_seconds_ = 0.0;
  double decode_seconds_ = 0.0;
};

/// Runs `frames` consecutive frames at `oi_seconds` cadence through a
/// fresh codec, on a model already spun up past `spinup`.
OiResult run_oi(WeatherModel& model, double oi_seconds, int frames) {
  FrameFieldCodec codec(CodecOptions{/*enabled=*/true,
                                     CodecPrecision::kFloat32,
                                     /*verify_roundtrip=*/true});
  PayloadDigest digest;
  std::vector<FieldView> fields;
  OiResult out;
  double next_frame = model.sim_time().seconds();
  while (out.frames < frames) {
    if (model.sim_time().seconds() >= next_frame) {
      collect_fields(model, fields);
      codec.encode_frame_fields(fields);
      digest.add_frame(fields);
      ++out.frames;
      next_frame += oi_seconds;
    } else {
      model.step();
    }
  }
  if (digest.encoded_bytes() != codec.total_encoded_bytes()) {
    std::fprintf(stderr,
                 "FAIL: payload replay coded %zu bytes, FrameFieldCodec %zu\n",
                 digest.encoded_bytes(), codec.total_encoded_bytes());
    std::exit(1);
  }
  out.payload_digest = digest.digest();
  out.ratio = codec.cumulative_ratio();
  const double raw_mb =
      static_cast<double>(codec.total_raw_bytes()) / 1.0e6;
  const double encode_s = digest.encode_seconds();
  const double decode_s = digest.decode_seconds();
  out.encode_mb_s = encode_s > 0.0 ? raw_mb / encode_s : 0.0;
  out.decode_mb_s = decode_s > 0.0 ? raw_mb / decode_s : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  benchio::BenchArgs args = benchio::parse_bench_args(argc, argv);
  const std::string json_path =
      args.json_path.empty() ? "BENCH_codec.json" : args.json_path;

  // Spin up ~12 simulated hours so the cyclone is organized and the nest
  // is active — frames then look like mid-experiment output, not the
  // near-uniform initial analysis (which would flatter the ratio). Each
  // cadence restarts from the same checkpoint so the sweep compares
  // output intervals, not storm stages.
  WeatherModel spinup(fig5_config());
  const double spinup_s = 12.0 * 3600.0;
  while (spinup.sim_time().seconds() < spinup_s) spinup.step();
  const NclFile checkpoint = spinup.checkpoint();
  const auto restored = [&checkpoint] {
    return WeatherModel::restore(fig5_config(), ResolutionLadder::table3(),
                                 checkpoint);
  };

  const int frames = args.quick ? 6 : 40;
  benchio::BenchReport report;
  int failures = 0;

  // Gate at the finest Fig-5 cadence (3 min), where the decision layer
  // lives when resources are tight and compression matters most.
  {
    WeatherModel model = restored();
    const OiResult r = run_oi(model, 180.0, frames);
    report.add("codec", "oi3min", "ratio", r.ratio, "x");
    report.add("codec", "oi3min", "encode_mb_s", r.encode_mb_s, "MB/s");
    report.add("codec", "oi3min", "decode_mb_s", r.decode_mb_s, "MB/s");
    report.add("codec", "oi3min", "frames", static_cast<double>(r.frames),
               "count");
    std::printf("codec oi3min: ratio %.2fx over %d frames, encode %.1f "
                "MB/s, decode %.1f MB/s, payload digest 0x%016" PRIx64 "\n",
                r.ratio, r.frames, r.encode_mb_s, r.decode_mb_s,
                r.payload_digest);
    if (r.ratio < 2.0) {
      std::fprintf(stderr,
                   "FAIL: codec ratio %.2fx at 3-min cadence is below the "
                   "2.0x floor\n",
                   r.ratio);
      ++failures;
    }
    const std::uint64_t golden =
        args.quick ? kQuickPayloadDigest : kFullPayloadDigest;
    if (r.payload_digest != golden) {
      std::fprintf(stderr,
                   "FAIL: payload digest 0x%016" PRIx64 " != golden 0x%016" PRIx64
                   "\n",
                   r.payload_digest, golden);
      ++failures;
    }
  }

  // Coarser Fig-5 cadences, report-only: shows how the temporal predictor
  // decays as the output interval stretches.
  if (!args.quick) {
    const struct {
      const char* name;
      double oi_s;
    } sweeps[] = {{"oi7.2min", 432.0}, {"oi12min", 720.0},
                  {"oi24min", 1440.0}};
    for (const auto& sweep : sweeps) {
      WeatherModel model = restored();
      const OiResult r = run_oi(model, sweep.oi_s, frames);
      report.add("codec", sweep.name, "ratio", r.ratio, "x");
      report.add("codec", sweep.name, "encode_mb_s", r.encode_mb_s, "MB/s");
      report.add("codec", sweep.name, "decode_mb_s", r.decode_mb_s, "MB/s");
      std::printf("codec %s: ratio %.2fx over %d frames\n", sweep.name,
                  r.ratio, r.frames);
    }
  }

  report.save(json_path);
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(),
              report.rows().size());
  return failures == 0 ? 0 : 1;
}
