// The .tdagg result store: a compact, versioned, mergeable archive of
// analysis results, built so the paper's §IV measurement study composes
// across shards, runs, and weeks. One `tdat analyze --format agg` run emits
// one archive; `tdat aggregate` merges N of them losslessly.
//
// Merge semantics (DESIGN.md §13):
//  - connection rows are a multiset kept in a canonical total order; merge
//    is a linear merge of the two sorted row sets, so merge(a, b) and
//    merge(b, a) serialize to identical bytes and merging shard archives
//    equals the single-run archive over the same packets;
//  - percentile sketches (agg/sketch.hpp) merge by element-wise addition,
//    keyed by (run, collector, peer, AS);
//  - ingest/quarantine diagnostics are sums.
// The empty archive is the merge identity.
//
// Versioning: the header carries a format version; readers reject newer
// majors instead of guessing. Fields are fixed little-endian; nothing in the
// encoding depends on host byte order, locale, or map iteration order.
//
// v2 adds two header fields: the ingest tail_truncated tally, and the sorted
// set of tool releases (semver only — never git hashes or build flavors,
// which would break byte-identity across checkouts) that contributed rows.
// v1 archives parse with both defaulted; merge unions the version sets.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "pcap/ingest.hpp"
#include "tcp/connection.hpp"
#include "util/metrics.hpp"
#include "util/result.hpp"

namespace tdat::agg {

inline constexpr std::uint32_t kArchiveVersion = 2;
inline constexpr std::uint8_t kArchiveMagic[4] = {'T', 'D', 'A', 'G'};

// One analyzed connection, projected from ConnectionAnalysis: everything the
// fleet roll-ups need, nothing that only a full re-analysis could use.
// Delays are stored as exact integer microseconds — ratios are derived at
// render time, so archives stay bit-stable under merge.
struct ConnectionRecord {
  std::string run_id;            // operator-supplied shard/run label ("" ok)
  std::uint32_t collector_ip = 0;  // receiver side of the data direction
  std::uint32_t peer_ip = 0;       // sender side (the operational router)
  std::uint32_t peer_as = 0;       // from the peer's OPEN (0 when unseen)
  ConnKey key;
  std::string quarantine_reason;   // empty = analyzed normally
  std::int64_t transfer_begin = 0;
  std::int64_t transfer_end = 0;   // <= begin means no transfer found
  std::uint64_t updates = 0;
  std::uint64_t prefixes = 0;
  std::array<std::int64_t, kFactorCount> factor_delay_us{};
  std::array<std::int64_t, kGroupCount> group_delay_us{};

  [[nodiscard]] bool quarantined() const { return !quarantine_reason.empty(); }
  [[nodiscard]] bool has_transfer() const {
    return transfer_end > transfer_begin;
  }
  [[nodiscard]] std::int64_t transfer_us() const {
    return has_transfer() ? transfer_end - transfer_begin : 0;
  }
  // Index of the largest-delay factor (ties to the lowest index); only
  // meaningful when has_transfer().
  [[nodiscard]] std::size_t dominant_factor() const;

  // Canonical total order over every field — the sort key that makes merge
  // output independent of input order.
  friend auto operator<=>(const ConnectionRecord&,
                          const ConnectionRecord&) = default;
  friend bool operator==(const ConnectionRecord&,
                         const ConnectionRecord&) = default;
};

// Sketch group key: the dimensions roll-ups slice by.
struct SketchKey {
  std::string run_id;
  std::uint32_t collector_ip = 0;
  std::uint32_t peer_ip = 0;
  std::uint32_t peer_as = 0;

  friend auto operator<=>(const SketchKey&, const SketchKey&) = default;
  friend bool operator==(const SketchKey&, const SketchKey&) = default;
};

// Mergeable distributions for one key: transfer times plus per-factor
// absolute delay, all in microseconds. Only connections with a located
// transfer contribute.
struct SketchGroup {
  SketchKey key;
  HistogramSnapshot transfer_us;
  std::array<HistogramSnapshot, kFactorCount> factor_delay_us;
};

struct Archive {
  IngestDiagnostics ingest;            // summed across merged runs
  std::uint64_t budget_exhausted_runs = 0;
  // Releases that produced the merged rows, sorted unique. Empty only for
  // the merge identity and archives from pre-v2 tools.
  std::vector<std::string> tool_versions;
  std::vector<ConnectionRecord> connections;  // canonically sorted
  std::vector<SketchGroup> sketches;          // sorted by key

  [[nodiscard]] std::uint64_t quarantined() const;
  [[nodiscard]] std::uint64_t transfers() const;

  // Restores the canonical ordering invariant (serialize requires it; the
  // builders and merge maintain it themselves).
  void normalize();

  // Folds `other` in. Associative, commutative, and `Archive{}` is the
  // identity: merge_from on the serialized level is a pure function of the
  // multiset of inputs. Both sides must be in canonical order (built,
  // normalized, or parsed — parse_archive rejects anything else).
  void merge_from(const Archive& other);

  [[nodiscard]] std::string serialize() const;
};

[[nodiscard]] Result<Archive> parse_archive(std::span<const std::uint8_t> bytes);
[[nodiscard]] Result<Archive> read_archive_file(const std::string& path);
[[nodiscard]] bool write_archive_file(const std::string& path,
                                      const Archive& archive);

}  // namespace tdat::agg
