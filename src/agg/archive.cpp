#include "agg/archive.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "agg/sketch.hpp"
#include "util/atomic_file.hpp"
#include "util/bytes.hpp"

namespace tdat::agg {

namespace {

void encode_string(const std::string& s, ByteWriter& w) {
  w.u32le(static_cast<std::uint32_t>(s.size()));
  w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::string decode_string(ByteReader& r) {
  const std::uint32_t len = r.u32le();
  // A length beyond the remaining payload is damage, not a huge string.
  if (len > r.remaining()) {
    r.fail();
    return {};
  }
  const auto bytes = r.bytes(len);
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

void encode_record(const ConnectionRecord& c, ByteWriter& w) {
  encode_string(c.run_id, w);
  w.u32le(c.collector_ip);
  w.u32le(c.peer_ip);
  w.u32le(c.peer_as);
  w.u32le(c.key.ip_a);
  w.u16le(c.key.port_a);
  w.u32le(c.key.ip_b);
  w.u16le(c.key.port_b);
  encode_string(c.quarantine_reason, w);
  w.i64le(c.transfer_begin);
  w.i64le(c.transfer_end);
  w.u64le(c.updates);
  w.u64le(c.prefixes);
  for (const std::int64_t d : c.factor_delay_us) w.i64le(d);
  for (const std::int64_t d : c.group_delay_us) w.i64le(d);
}

ConnectionRecord decode_record(ByteReader& r) {
  ConnectionRecord c;
  c.run_id = decode_string(r);
  c.collector_ip = r.u32le();
  c.peer_ip = r.u32le();
  c.peer_as = r.u32le();
  c.key.ip_a = r.u32le();
  c.key.port_a = r.u16le();
  c.key.ip_b = r.u32le();
  c.key.port_b = r.u16le();
  c.quarantine_reason = decode_string(r);
  c.transfer_begin = r.i64le();
  c.transfer_end = r.i64le();
  c.updates = r.u64le();
  c.prefixes = r.u64le();
  for (std::int64_t& d : c.factor_delay_us) d = r.i64le();
  for (std::int64_t& d : c.group_delay_us) d = r.i64le();
  return c;
}

void encode_sketch_group(const SketchGroup& g, ByteWriter& w) {
  encode_string(g.key.run_id, w);
  w.u32le(g.key.collector_ip);
  w.u32le(g.key.peer_ip);
  w.u32le(g.key.peer_as);
  encode_sketch(g.transfer_us, w);
  for (const HistogramSnapshot& s : g.factor_delay_us) encode_sketch(s, w);
}

SketchGroup decode_sketch_group(ByteReader& r) {
  SketchGroup g;
  g.key.run_id = decode_string(r);
  g.key.collector_ip = r.u32le();
  g.key.peer_ip = r.u32le();
  g.key.peer_as = r.u32le();
  g.transfer_us = decode_sketch(r);
  for (HistogramSnapshot& s : g.factor_delay_us) s = decode_sketch(r);
  return g;
}

bool sketch_key_less(const SketchGroup& a, const SketchGroup& b) {
  return a.key < b.key;
}

}  // namespace

std::size_t ConnectionRecord::dominant_factor() const {
  std::size_t best = 0;
  for (std::size_t f = 1; f < kFactorCount; ++f) {
    if (factor_delay_us[f] > factor_delay_us[best]) best = f;
  }
  return best;
}

std::uint64_t Archive::quarantined() const {
  std::uint64_t n = 0;
  for (const ConnectionRecord& c : connections) {
    if (c.quarantined()) ++n;
  }
  return n;
}

std::uint64_t Archive::transfers() const {
  std::uint64_t n = 0;
  for (const ConnectionRecord& c : connections) {
    if (c.has_transfer()) ++n;
  }
  return n;
}

void Archive::normalize() {
  std::sort(tool_versions.begin(), tool_versions.end());
  tool_versions.erase(
      std::unique(tool_versions.begin(), tool_versions.end()),
      tool_versions.end());
  std::sort(connections.begin(), connections.end());
  std::sort(sketches.begin(), sketches.end(), sketch_key_less);
}

void Archive::merge_from(const Archive& other) {
  ingest.add(other.ingest);
  budget_exhausted_runs += other.budget_exhausted_runs;
  tool_versions.insert(tool_versions.end(), other.tool_versions.begin(),
                       other.tool_versions.end());
  std::sort(tool_versions.begin(), tool_versions.end());
  tool_versions.erase(
      std::unique(tool_versions.begin(), tool_versions.end()),
      tool_versions.end());
  // Both row sets are canonically sorted (builders normalize, parse_archive
  // rejects anything else), so one linear merge keeps the total order.
  const auto mid = static_cast<std::ptrdiff_t>(connections.size());
  connections.insert(connections.end(), other.connections.begin(),
                     other.connections.end());
  std::inplace_merge(connections.begin(), connections.begin() + mid,
                     connections.end());
  // Merge sketch groups by key; both sides are sorted, the result stays so.
  std::vector<SketchGroup> merged;
  merged.reserve(sketches.size() + other.sketches.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < sketches.size() || j < other.sketches.size()) {
    if (j >= other.sketches.size() ||
        (i < sketches.size() && sketches[i].key < other.sketches[j].key)) {
      merged.push_back(std::move(sketches[i++]));
    } else if (i >= sketches.size() ||
               other.sketches[j].key < sketches[i].key) {
      merged.push_back(other.sketches[j++]);
    } else {
      SketchGroup g = std::move(sketches[i++]);
      const SketchGroup& o = other.sketches[j++];
      g.transfer_us.merge_from(o.transfer_us);
      for (std::size_t f = 0; f < kFactorCount; ++f) {
        g.factor_delay_us[f].merge_from(o.factor_delay_us[f]);
      }
      merged.push_back(std::move(g));
    }
  }
  sketches = std::move(merged);
}

std::string Archive::serialize() const {
  ByteWriter w;
  w.bytes(kArchiveMagic);
  w.u32le(kArchiveVersion);
  w.u64le(ingest.truncated);
  w.u64le(ingest.resynced);
  w.u64le(ingest.skipped_bytes);
  w.u64le(ingest.tail_truncated);  // v2
  w.u64le(budget_exhausted_runs);
  w.u32le(static_cast<std::uint32_t>(tool_versions.size()));  // v2
  for (const std::string& v : tool_versions) encode_string(v, w);
  w.u64le(connections.size());
  for (const ConnectionRecord& c : connections) encode_record(c, w);
  w.u64le(sketches.size());
  for (const SketchGroup& g : sketches) encode_sketch_group(g, w);
  const std::vector<std::uint8_t>& buf = w.data();
  return std::string(reinterpret_cast<const char*>(buf.data()), buf.size());
}

Result<Archive> parse_archive(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto magic = r.bytes(4);
  if (magic.size() != 4 || !std::equal(magic.begin(), magic.end(),
                                       std::begin(kArchiveMagic))) {
    return Err<Archive>("not a .tdagg archive (bad magic)");
  }
  const std::uint32_t version = r.u32le();
  if (version == 0 || version > kArchiveVersion) {
    return Err<Archive>(".tdagg version " + std::to_string(version) +
                        " is newer than this tool (max " +
                        std::to_string(kArchiveVersion) + ")");
  }
  Archive a;
  a.ingest.truncated = r.u64le();
  a.ingest.resynced = r.u64le();
  a.ingest.skipped_bytes = r.u64le();
  if (version >= 2) a.ingest.tail_truncated = r.u64le();
  a.budget_exhausted_runs = r.u64le();
  if (version >= 2) {
    const std::uint32_t nversions = r.u32le();
    for (std::uint32_t i = 0; i < nversions && r.ok(); ++i) {
      a.tool_versions.push_back(decode_string(r));
    }
  }
  a.ingest.budget_exhausted = a.budget_exhausted_runs > 0;
  const std::uint64_t conn_count = r.u64le();
  for (std::uint64_t i = 0; i < conn_count && r.ok(); ++i) {
    a.connections.push_back(decode_record(r));
  }
  const std::uint64_t sketch_count = r.u64le();
  for (std::uint64_t i = 0; i < sketch_count && r.ok(); ++i) {
    a.sketches.push_back(decode_sketch_group(r));
  }
  if (!r.ok()) return Err<Archive>("truncated or corrupt .tdagg archive");
  if (r.remaining() != 0) {
    return Err<Archive>("trailing bytes after .tdagg payload");
  }
  // Merge relies on the canonical order every writer produces: rows sorted,
  // sketch keys strictly increasing (one group per key).
  if (!std::is_sorted(a.connections.begin(), a.connections.end())) {
    return Err<Archive>(".tdagg connection rows out of canonical order");
  }
  if (std::adjacent_find(a.sketches.begin(), a.sketches.end(),
                         [](const SketchGroup& x, const SketchGroup& y) {
                           return !(x.key < y.key);
                         }) != a.sketches.end()) {
    return Err<Archive>(".tdagg sketch keys not strictly increasing");
  }
  return a;
}

Result<Archive> read_archive_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Err<Archive>("cannot open " + path);
  std::vector<std::uint8_t> image;
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    image.insert(image.end(), buf, buf + got);
  }
  std::fclose(f);
  auto parsed = parse_archive(image);
  if (!parsed.ok()) return Err<Archive>(path + ": " + parsed.error());
  return parsed;
}

bool write_archive_file(const std::string& path, const Archive& archive) {
  // Durable atomic replace: an ENOSPC or short write must leave any previous
  // archive at `path` intact — a torn .tdagg would poison every later merge.
  const std::string bytes = archive.serialize();
  auto wrote = write_file_atomic_durable(path, bytes);
  if (!wrote.ok()) {
    std::fprintf(stderr, "tdat: %s\n", wrote.error().c_str());
    return false;
  }
  return true;
}

}  // namespace tdat::agg
