#include "campaign/manifest.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/string_util.hpp"
#include "util/wire.hpp"

namespace adaptviz {
namespace {

// Strings travel percent-encoded and doubles as hexfloats (util/wire.hpp),
// so a value never contains a space, newline or quote of the kv line,
// pipe or JSON layer, and the merged summary reproduces the in-process
// CSV byte for byte.
using wire::decode_double;
using wire::encode_double;
using wire::percent_decode;
using wire::percent_encode;

std::int64_t decode_int(const std::string& s) {
  return parse_int("manifest", s);
}

std::vector<std::pair<std::string, std::string>> split_kv(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  std::set<std::string> keys;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    if (end > pos) {
      const std::string token = line.substr(pos, end - pos);
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::runtime_error("manifest: malformed token '" + token + "'");
      }
      std::string key = token.substr(0, eq);
      if (!keys.insert(key).second) {
        throw std::runtime_error("manifest: duplicate key '" + key + "'");
      }
      out.emplace_back(std::move(key), token.substr(eq + 1));
    }
    pos = end + 1;
  }
  return out;
}

}  // namespace

// ---- record codec ----

std::string encode_run_record(const CampaignRunRecord& record) {
  const ExperimentSummary& s = record.summary;
  std::string out;
  const auto str = [&out](const char* k, const std::string& v) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += percent_encode(v);
  };
  const auto num = [&out](const char* k, std::int64_t v) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += std::to_string(v);
  };
  const auto dbl = [&out](const char* k, double v) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += encode_double(v);
  };

  str("label", record.label);
  str("site", record.site);
  num("algorithm", static_cast<std::int64_t>(record.algorithm));
  num("seed", static_cast<std::int64_t>(record.seed));
  dbl("disk_gb", record.disk_gb);
  dbl("failure_rate", record.failure_rate);
  num("codec", record.codec_enabled ? 1 : 0);
  num("failed", record.failed ? 1 : 0);
  str("error", record.error);

  num("completed", s.completed ? 1 : 0);
  dbl("wall_elapsed_s", s.wall_elapsed.seconds());
  dbl("sim_finished_wall_s", s.sim_finished_wall.seconds());
  dbl("sim_reached_s", s.sim_reached.seconds());
  num("peak_disk_bytes", s.peak_disk_used.count());
  dbl("min_free_disk_percent", s.min_free_disk_percent);
  dbl("stall_s", s.total_stall_time.seconds());
  num("frames_written", s.frames_written);
  num("frames_sent", s.frames_sent);
  num("frames_visualized", s.frames_visualized);
  num("transfer_failures", s.transfer_failures);
  num("transfer_retries", s.transfer_retries);
  num("restarts", s.restarts);
  num("decisions", s.decision_count);
  num("viewers", s.viewers);
  num("frames_served", s.frames_served);
  num("cache_hits", s.cache_hits);
  num("cache_misses", s.cache_misses);
  num("cache_evictions", s.cache_evictions);
  num("rerenders", s.rerenders);
  num("peak_cache_bytes", s.peak_cache_bytes.count());
  dbl("codec_mean_ratio", s.codec_mean_ratio);
  num("codec_saved_bytes", s.codec_bytes_saved.count());
  num("tree_tiers", s.tree_tiers);
  num("tree_leaves", s.tree_leaves);
  num("tree_viewers", s.tree_viewers);
  num("tree_frames_delivered", s.tree_frames_delivered);
  num("tree_origin_wan_bytes", s.tree_origin_wan_bytes.count());
  num("tree_fill_retries", s.tree_fill_retries);
  num("tree_degraded_events", s.tree_degraded_events);
  return out;
}

CampaignRunRecord decode_run_record(const std::string& line) {
  CampaignRunRecord r;
  ExperimentSummary& s = r.summary;
  for (const auto& [key, value] : split_kv(line)) {
    if (key == "label") {
      r.label = percent_decode(value);
    } else if (key == "site") {
      r.site = percent_decode(value);
    } else if (key == "algorithm") {
      r.algorithm = static_cast<AlgorithmKind>(decode_int(value));
    } else if (key == "seed") {
      r.seed = static_cast<std::uint64_t>(decode_int(value));
    } else if (key == "disk_gb") {
      r.disk_gb = decode_double(value);
    } else if (key == "failure_rate") {
      r.failure_rate = decode_double(value);
    } else if (key == "codec") {
      r.codec_enabled = decode_int(value) != 0;
    } else if (key == "failed") {
      r.failed = decode_int(value) != 0;
    } else if (key == "error") {
      r.error = percent_decode(value);
    } else if (key == "completed") {
      s.completed = decode_int(value) != 0;
    } else if (key == "wall_elapsed_s") {
      s.wall_elapsed = WallSeconds(decode_double(value));
    } else if (key == "sim_finished_wall_s") {
      s.sim_finished_wall = WallSeconds(decode_double(value));
    } else if (key == "sim_reached_s") {
      s.sim_reached = SimSeconds(decode_double(value));
    } else if (key == "peak_disk_bytes") {
      s.peak_disk_used = Bytes(decode_int(value));
    } else if (key == "min_free_disk_percent") {
      s.min_free_disk_percent = decode_double(value);
    } else if (key == "stall_s") {
      s.total_stall_time = WallSeconds(decode_double(value));
    } else if (key == "frames_written") {
      s.frames_written = decode_int(value);
    } else if (key == "frames_sent") {
      s.frames_sent = decode_int(value);
    } else if (key == "frames_visualized") {
      s.frames_visualized = decode_int(value);
    } else if (key == "transfer_failures") {
      s.transfer_failures = decode_int(value);
    } else if (key == "transfer_retries") {
      s.transfer_retries = decode_int(value);
    } else if (key == "restarts") {
      s.restarts = static_cast<int>(decode_int(value));
    } else if (key == "decisions") {
      s.decision_count = static_cast<int>(decode_int(value));
    } else if (key == "viewers") {
      s.viewers = static_cast<int>(decode_int(value));
    } else if (key == "frames_served") {
      s.frames_served = decode_int(value);
    } else if (key == "cache_hits") {
      s.cache_hits = decode_int(value);
    } else if (key == "cache_misses") {
      s.cache_misses = decode_int(value);
    } else if (key == "cache_evictions") {
      s.cache_evictions = decode_int(value);
    } else if (key == "rerenders") {
      s.rerenders = decode_int(value);
    } else if (key == "peak_cache_bytes") {
      s.peak_cache_bytes = Bytes(decode_int(value));
    } else if (key == "codec_mean_ratio") {
      s.codec_mean_ratio = decode_double(value);
    } else if (key == "codec_saved_bytes") {
      s.codec_bytes_saved = Bytes(decode_int(value));
    } else if (key == "tree_tiers") {
      s.tree_tiers = static_cast<int>(decode_int(value));
    } else if (key == "tree_leaves") {
      s.tree_leaves = static_cast<int>(decode_int(value));
    } else if (key == "tree_viewers") {
      s.tree_viewers = decode_int(value);
    } else if (key == "tree_frames_delivered") {
      s.tree_frames_delivered = decode_int(value);
    } else if (key == "tree_origin_wan_bytes") {
      s.tree_origin_wan_bytes = Bytes(decode_int(value));
    } else if (key == "tree_fill_retries") {
      s.tree_fill_retries = decode_int(value);
    } else if (key == "tree_degraded_events") {
      s.tree_degraded_events = decode_int(value);
    } else {
      throw std::runtime_error("manifest: unknown record key '" + key + "'");
    }
  }
  return r;
}

// ---- entry codec ----
//
// `index=N files=p1:b1,p2:b2 <record kvs>` — the `files` value holds the
// percent-encoded path and decimal byte size of each stamped output file
// (or is empty for a failed run).

std::string encode_manifest_entry(const ManifestEntry& entry) {
  std::string files;
  for (const FileStamp& f : entry.files) {
    if (!files.empty()) files += ',';
    files += percent_encode(f.path) + ':' + std::to_string(f.bytes);
  }
  return "index=" + std::to_string(entry.index) + " files=" + files + " " +
         encode_run_record(entry.record);
}

ManifestEntry decode_manifest_entry(const std::string& line) {
  ManifestEntry entry;
  // Peel the two entry-level tokens off the front; the rest is the record.
  std::size_t pos = 0;
  const auto take_token = [&line, &pos](const char* prefix) {
    const std::size_t plen = std::string(prefix).size();
    if (line.compare(pos, plen, prefix) != 0) {
      throw std::runtime_error("manifest: entry missing '" +
                               std::string(prefix) + "' at '" +
                               line.substr(pos, 24) + "'");
    }
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const std::string value = line.substr(pos + plen, end - pos - plen);
    pos = std::min(end + 1, line.size());
    return value;
  };
  entry.index = static_cast<std::size_t>(decode_int(take_token("index=")));
  const std::string files = take_token("files=");
  if (!files.empty()) {
    std::size_t fpos = 0;
    while (fpos < files.size()) {
      std::size_t fend = files.find(',', fpos);
      if (fend == std::string::npos) fend = files.size();
      const std::string stamp = files.substr(fpos, fend - fpos);
      const std::size_t colon = stamp.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        throw std::runtime_error("manifest: malformed file stamp '" + stamp +
                                 "'");
      }
      entry.files.push_back(FileStamp{percent_decode(stamp.substr(0, colon)),
                                      decode_int(stamp.substr(colon + 1))});
      fpos = fend + 1;
    }
  }
  entry.record = decode_run_record(line.substr(pos));
  return entry;
}

// ---- JSON layer ----
//
// The manifest is real JSON (CI uploads it as an artifact; humans read it
// after a failed sweep), written with wire::json_quote and read with
// wire::parse_json.

namespace {

using wire::JsonValue;

// Every number in the manifest is a count or an index; anything else is
// rejected before it reaches an integer cast.
std::int64_t require_count(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    throw std::runtime_error(std::string("manifest: missing number '") + key +
                             "'");
  }
  if (!(v->number >= 0.0 && v->number <= 9007199254740992.0) ||
      v->number != std::floor(v->number)) {
    throw std::runtime_error(std::string("manifest: '") + key +
                             "' is not a count");
  }
  return static_cast<std::int64_t>(v->number);
}

std::string require_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    throw std::runtime_error(std::string("manifest: missing string '") + key +
                             "'");
  }
  return v->string;
}

}  // namespace

// ---- CampaignManifest ----

const char* CampaignManifest::filename() { return "campaign_manifest.json"; }

void CampaignManifest::upsert(ManifestEntry entry) {
  const std::size_t index = entry.index;
  entries.insert_or_assign(index, std::move(entry));
}

std::string CampaignManifest::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": " << kVersion << ",\n";
  out << "  \"campaign\": " << wire::json_quote(campaign) << ",\n";
  out << "  \"grid\": " << grid << ",\n";
  out << "  \"runs\": [";
  bool first = true;
  for (const auto& [index, entry] : entries) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"index\": " << index
        << ", \"label\": " << wire::json_quote(entry.record.label)
        << ", \"failed\": " << (entry.record.failed ? "true" : "false")
        << ", \"record\": " << wire::json_quote(encode_run_record(entry.record))
        << ", \"files\": [";
    for (std::size_t i = 0; i < entry.files.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"path\": " << wire::json_quote(entry.files[i].path)
          << ", \"bytes\": " << entry.files[i].bytes << "}";
    }
    out << "]}";
  }
  out << (first ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

void CampaignManifest::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      throw std::runtime_error("manifest: cannot write " + tmp);
    }
    out << to_json();
  }
  std::filesystem::rename(tmp, path);
}

CampaignManifest CampaignManifest::from_json(const std::string& text) {
  const JsonValue root = wire::parse_json(text);
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("manifest: top level is not an object");
  }
  if (require_count(root, "version") != kVersion) {
    throw std::runtime_error("manifest: unsupported version");
  }
  CampaignManifest m;
  m.campaign = require_string(root, "campaign");
  m.grid = static_cast<std::size_t>(require_count(root, "grid"));
  const JsonValue* runs = root.find("runs");
  if (runs == nullptr || runs->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("manifest: missing 'runs' array");
  }
  for (const JsonValue& run : runs->array) {
    if (run.kind != JsonValue::Kind::kObject) {
      throw std::runtime_error("manifest: run entry is not an object");
    }
    ManifestEntry entry;
    entry.index = static_cast<std::size_t>(require_count(run, "index"));
    entry.record = decode_run_record(require_string(run, "record"));
    if (const JsonValue* files = run.find("files");
        files != nullptr && files->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& f : files->array) {
        entry.files.push_back(
            FileStamp{require_string(f, "path"), require_count(f, "bytes")});
      }
    }
    m.upsert(std::move(entry));
  }
  return m;
}

std::optional<CampaignManifest> CampaignManifest::load(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(text.str());
  } catch (const std::exception&) {
    // A torn or stale manifest means "start fresh", never a crash.
    return std::nullopt;
  }
}

// ---- output integrity ----

std::vector<FileStamp> stamp_result_files(const std::string& label,
                                          const std::string& dir) {
  static const char* kSuffixes[] = {"_samples.csv", "_visualization.csv",
                                    "_decisions.csv", "_track.csv",
                                    "_summary.ini",  "_clients.csv"};
  std::vector<FileStamp> stamps;
  for (const char* suffix : kSuffixes) {
    const std::string name = label + suffix;
    std::error_code ec;
    const auto size = std::filesystem::file_size(dir + "/" + name, ec);
    if (ec) continue;  // optional outputs (e.g. _clients.csv) may not exist
    stamps.push_back(FileStamp{name, static_cast<std::int64_t>(size)});
  }
  return stamps;
}

bool entry_output_intact(const ManifestEntry& entry, const std::string& dir) {
  for (const FileStamp& f : entry.files) {
    const std::string path = dir + "/" + f.path;
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec || static_cast<std::int64_t>(size) != f.bytes || f.bytes <= 0) {
      return false;
    }
    // A crash mid-row leaves the final line unterminated even when the
    // byte count happens to collide; the trailing newline is the
    // "row complete" marker every writer in this repo emits.
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    in.seekg(-1, std::ios::end);
    char last = '\0';
    in.read(&last, 1);
    if (!in || last != '\n') return false;
  }
  return true;
}

}  // namespace adaptviz
