// Crash-durable tier-1 cache: one text file per definitive entry.
//
// Format (version 1), all-ASCII so a truncated write is detectable by
// line structure alone:
//
//   manthan3-cache 1
//   fp <32 hex digits>
//   mode <u32>
//   status <status_name>
//   engine <engine_name>
//   certified <0|1>
//   raced <0|1>
//   solve_seconds <double>
//   stat <name> <value>          (one line per core::kStatFields row)
//   roots <k>
//   inputs <id...>               (when the cones read any input: the
//                                 original input ids, ascending)
//   end-header
//   <ASCII AIGER payload when k > 0>
//
// The AIGER writer numbers inputs densely in ascending id order, which
// loses the matrix-variable ids the cone inputs carry — and
// ResultCone::import_into maps inputs by id. The `inputs` line records
// the original id of each dense AIGER input so the reload can rebuild
// the cone over the right variables.
//
// Unknown `stat` names are skipped on load (forward compatibility);
// anything else malformed — bad magic, missing field, AIGER parse error,
// root-count mismatch — skips the entry, never aborts the service.
// Files are written through obs::write_file_atomic (tmp + rename), so a
// crash mid-store leaves either the old file or a stray .tmp, never a
// half entry under the real name.

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "aig/aiger.hpp"
#include "engine/service.hpp"
#include "obs/metrics.hpp"

namespace manthan::engine {

namespace {

namespace fs = std::filesystem;

constexpr const char* kMagic = "manthan3-cache 1";
constexpr const char* kExtension = ".m3c";

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

template <typename Unsigned>
bool parse_uint(const std::string& text, Unsigned& out, int base = 10) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto result = std::from_chars(begin, end, out, base);
  return result.ec == std::errc() && result.ptr == end;
}

bool parse_double(const std::string& text, double& out) {
  try {
    std::size_t consumed = 0;
    out = std::stod(text, &consumed);
    return consumed == text.size();
  } catch (...) {
    return false;
  }
}

bool parse_fingerprint(const std::string& hex, dqbf::Fingerprint& fp) {
  if (hex.size() != 32) return false;
  return parse_uint(hex.substr(0, 16), fp.hi, 16) &&
         parse_uint(hex.substr(16, 16), fp.lo, 16);
}

/// Split "key value" (value may contain further spaces for `stat` lines).
bool split_kv(const std::string& line, std::string& key, std::string& value) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos || space == 0) return false;
  key = line.substr(0, space);
  value = line.substr(space + 1);
  return !value.empty();
}

// The typed ServiceMetrics block is file-local to service.cpp; the
// registry's get-or-create lookup reaches the same instruments.
obs::Gauge& persisted_entries_gauge() {
  return obs::Registry::global().gauge("cache_persisted_entries");
}

/// Union of the cones' primary-input ids, ascending — exactly the dense
/// input order write_aiger_ascii emits, so position k of this list is
/// the original id of AIGER input k.
std::vector<std::int32_t> cone_input_ids(const aig::Aig& manager,
                                         const std::vector<aig::Ref>& roots) {
  std::vector<std::int32_t> ids;
  for (const aig::Ref root : roots) {
    for (const std::uint32_t idx : aig::cone_topo_order(manager, root)) {
      const std::int32_t input_id = manager.node(idx).input_id;
      if (input_id >= 0) ids.push_back(input_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

std::string Service::persist_filename(const CacheKey& key) {
  return dqbf::to_string(key.fp) + "-" + std::to_string(key.mode) + kExtension;
}

std::string Service::encode_persisted(const CacheKey& key,
                                      const ServiceResponse& response) {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "fp " << dqbf::to_string(key.fp) << '\n';
  out << "mode " << key.mode << '\n';
  out << "status " << status_name(response.status) << '\n';
  out << "engine " << engine_name(response.engine) << '\n';
  out << "certified " << (response.certified ? 1 : 0) << '\n';
  out << "raced " << (response.raced ? 1 : 0) << '\n';
  out << "solve_seconds " << format_double(response.solve_seconds) << '\n';
  for (const core::StatField& f : core::kStatFields) {
    out << "stat " << f.name << ' ' << core::stat_text(response.stats, f)
        << '\n';
  }
  const std::size_t roots =
      response.functions != nullptr ? response.functions->roots().size() : 0;
  out << "roots " << roots << '\n';
  if (roots > 0) {
    const std::vector<std::int32_t> inputs = cone_input_ids(
        response.functions->manager(), response.functions->roots());
    if (!inputs.empty()) {
      out << "inputs";
      for (const std::int32_t id : inputs) out << ' ' << id;
      out << '\n';
    }
  }
  out << "end-header\n";
  if (roots > 0) {
    out << aig::to_aiger_ascii_string(response.functions->manager(),
                                      response.functions->roots());
  }
  return out.str();
}

std::optional<Service::PersistedEntry> Service::decode_persisted(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return std::nullopt;

  PersistedEntry entry;
  bool have_fp = false, have_mode = false, have_status = false;
  bool have_engine = false, have_roots = false;
  std::uint64_t roots = 0;
  std::vector<std::int32_t> input_ids;
  while (std::getline(in, line)) {
    if (line == "end-header") break;
    std::string key, value;
    if (!split_kv(line, key, value)) return std::nullopt;
    if (key == "fp") {
      if (!parse_fingerprint(value, entry.key.fp)) return std::nullopt;
      entry.response.fingerprint = entry.key.fp;
      have_fp = true;
    } else if (key == "mode") {
      std::uint64_t mode = 0;
      if (!parse_uint(value, mode) || mode > 0xffffffffULL) return std::nullopt;
      entry.key.mode = static_cast<std::uint32_t>(mode);
      have_mode = true;
    } else if (key == "status") {
      const auto status = status_from_name(value);
      if (!status) return std::nullopt;
      entry.response.status = *status;
      have_status = true;
    } else if (key == "engine") {
      const auto engine = engine_from_name(value);
      if (!engine) return std::nullopt;
      entry.response.engine = *engine;
      have_engine = true;
    } else if (key == "certified") {
      entry.response.certified = value == "1";
    } else if (key == "raced") {
      entry.response.raced = value == "1";
    } else if (key == "solve_seconds") {
      if (!parse_double(value, entry.response.solve_seconds)) {
        return std::nullopt;
      }
    } else if (key == "stat") {
      std::string name, number;
      if (!split_kv(value, name, number)) return std::nullopt;
      // Unknown stat names are fine: a newer writer added a field, or an
      // older one wrote a field since retired.
      core::SynthesisStats& stats = entry.response.stats;
      for (const core::StatField& f : core::kStatFields) {
        if (name == f.name &&
            !(f.seconds != nullptr ? parse_double(number, stats.*f.seconds)
                                   : parse_uint(number, stats.*f.integer))) {
          return std::nullopt;
        }
      }
    } else if (key == "roots") {
      if (!parse_uint(value, roots)) return std::nullopt;
      have_roots = true;
    } else if (key == "inputs") {
      std::istringstream ids(value);
      std::string token;
      while (ids >> token) {
        std::uint64_t id = 0;
        if (!parse_uint(token, id) || id > 0x7fffffffULL) return std::nullopt;
        input_ids.push_back(static_cast<std::int32_t>(id));
      }
      if (input_ids.empty()) return std::nullopt;
    } else {
      return std::nullopt;  // unknown header key: not our file
    }
  }
  if (line != "end-header") return std::nullopt;  // truncated header
  if (!have_fp || !have_mode || !have_status || !have_engine || !have_roots) {
    return std::nullopt;
  }

  if (roots > 0) {
    std::string payload((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    // The AIGER module numbers inputs 0..I-1; rebuild the cone with the
    // original ids from the `inputs` line by seeding the import map with
    // input-to-input translations.
    aig::Aig raw;
    aig::AigerModule module;
    try {
      module = aig::read_aiger_ascii_string(payload, raw);
    } catch (const std::exception&) {
      return std::nullopt;  // truncated or corrupted payload
    }
    if (module.outputs.size() != roots) return std::nullopt;
    if (module.num_inputs != input_ids.size()) return std::nullopt;
    auto cone = std::make_shared<ResultCone>();
    std::unordered_map<std::uint32_t, aig::Ref> node_map;
    for (std::size_t k = 0; k < input_ids.size(); ++k) {
      node_map.emplace(
          aig::ref_node(raw.input(static_cast<std::int32_t>(k))),
          cone->manager_.input(input_ids[k]));
    }
    cone->roots_.reserve(module.outputs.size());
    for (const aig::Ref output : module.outputs) {
      cone->roots_.push_back(
          aig::import_cone(raw, cone->manager_, output, node_map));
    }
    entry.response.functions = std::move(cone);
  }
  // Persisted entries must round-trip to the exact definitive semantics:
  // solved() (certified realizable with functions) or unrealizable.
  const bool valid =
      (entry.response.solved() && entry.response.functions != nullptr) ||
      (entry.response.status == core::SynthesisStatus::kUnrealizable &&
       roots == 0);
  if (!valid) return std::nullopt;
  return entry;
}

void Service::load_persisted_cache() {
  std::error_code ec;
  fs::create_directories(options_.cache_dir, ec);
  if (ec) return;  // unusable cache dir: run in-memory only

  std::vector<fs::path> files;
  for (const auto& item : fs::directory_iterator(options_.cache_dir, ec)) {
    if (ec) break;
    if (!item.is_regular_file(ec) || ec) continue;
    if (item.path().extension() != kExtension) continue;
    files.push_back(item.path());
  }
  // Filename order, not directory order: the reload (and which entries
  // survive a capacity squeeze) must be deterministic.
  std::sort(files.begin(), files.end());

  const std::lock_guard<std::mutex> lock(mutex_);
  for (const fs::path& path : files) {
    std::ifstream in(path);
    if (!in) {
      ++persisted_corrupt_;
      continue;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::optional<PersistedEntry> entry = decode_persisted(text);
    // A filename that disagrees with its own header belongs to some other
    // key's entry (a torn rename): treat as corrupt.
    if (entry && persist_filename(entry->key) != path.filename().string()) {
      entry.reset();
    }
    if (!entry) {
      ++persisted_corrupt_;
      continue;
    }
    cache_store(entry->key, entry->response, /*persist=*/false);
    ++persisted_entries_;
  }
  obs::Registry::global()
      .gauge("service_result_cache_entries")
      .set(static_cast<double>(cache_.size()));
  persisted_entries_gauge().set(static_cast<double>(persisted_entries_));
}

void Service::persist_store(const CacheKey& key,
                            const ServiceResponse& response) {
  // mutex_ held. Failure to persist is not an error: the in-memory entry
  // still serves this process; only warm restarts lose it.
  std::error_code ec;
  fs::create_directories(options_.cache_dir, ec);
  if (ec) return;
  const std::string path =
      (fs::path(options_.cache_dir) / persist_filename(key)).string();
  if (obs::write_file_atomic(path, encode_persisted(key, response))) {
    ++persisted_entries_;
    persisted_entries_gauge().set(static_cast<double>(persisted_entries_));
  }
}

void Service::persist_remove(const CacheKey& key) {
  // mutex_ held.
  std::error_code ec;
  if (fs::remove(fs::path(options_.cache_dir) / persist_filename(key), ec) &&
      !ec && persisted_entries_ > 0) {
    --persisted_entries_;
    persisted_entries_gauge().set(static_cast<double>(persisted_entries_));
  }
}

}  // namespace manthan::engine
