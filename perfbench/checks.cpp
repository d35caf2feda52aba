// Correctness checks. Expected values come from the generator (what it
// built and wrote) or from properties every T-DAT result must have; none is
// computed by calling the program again.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "bgp/message.hpp"

namespace perfbench {

using namespace tdat;

std::string ipv4_string(std::uint32_t ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", ip >> 24, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

void digest_update(Fnv64& fnv, const BgpUpdate& u) {
  const auto prefixes = [&](const std::vector<Prefix>& ps) {
    fnv.add_value(ps.size());
    for (const Prefix& p : ps) {
      fnv.add_value(p.addr);
      fnv.add_value(p.length);
    }
  };
  prefixes(u.withdrawn);
  const PathAttributes& a = u.attrs;
  fnv.add_value(a.origin);
  fnv.add_value(a.as_path.size());
  for (const AsPathSegment& seg : a.as_path) {
    fnv.add_value(seg.type);
    fnv.add_value(seg.asns.size());
    for (const std::uint16_t asn : seg.asns) fnv.add_value(asn);
  }
  fnv.add_value(a.next_hop);
  fnv.add_value(a.med.has_value() ? 1 + std::uint64_t{*a.med} : 0);
  fnv.add_value(a.local_pref.has_value() ? 1 + std::uint64_t{*a.local_pref} : 0);
  fnv.add_value(a.communities.size());
  for (const std::uint32_t c : a.communities) fnv.add_value(c);
  fnv.add_value(a.unrecognized.size());
  for (const PathAttributes::RawAttribute& r : a.unrecognized) {
    fnv.add_value(r.flags);
    fnv.add_value(r.type_code);
    fnv.add_value(r.value.size());
    fnv.add(r.value.data(), r.value.size());
  }
  prefixes(u.nlri);
}

namespace {

template <typename... Args>
std::string fmt(const char* f, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, args...);
  return buf;
}

// The checks of one session's analysis; "" when all hold.
std::string check_session(const ConnectionAnalysis& a, const SessionTruth& s) {
  const std::string who = ipv4_string(s.peer_ip);
  if (a.quarantined()) {
    return who + ": quarantined (" + a.quarantine_reason + ")";
  }
  if (s.finished) {
    // The extracted UPDATEs against the table as the generator built it.
    Fnv64 fnv;
    std::uint64_t updates = 0;
    for (const TimedBgpMessage& m : a.messages) {
      if (const BgpUpdate* u = m.msg.as_update()) {
        digest_update(fnv, *u);
        ++updates;
      }
    }
    if (updates != s.updates || fnv.h != s.update_digest) {
      return who + fmt(": extracted %llu UPDATEs (digest %016llx), generator "
                       "sent %llu (digest %016llx)",
                       static_cast<unsigned long long>(updates),
                       static_cast<unsigned long long>(fnv.h),
                       static_cast<unsigned long long>(s.updates),
                       static_cast<unsigned long long>(s.update_digest));
    }
    if (a.mct.update_count != s.updates || a.mct.prefix_count != s.prefixes) {
      return who + fmt(": MCT transfer has %zu updates / %zu prefixes, "
                       "generator built %llu / %llu",
                       a.mct.update_count, a.mct.prefix_count,
                       static_cast<unsigned long long>(s.updates),
                       static_cast<unsigned long long>(s.prefixes));
    }
  }
  const DelayReport& r = a.report;
  const Micros transfer = a.transfer.length();
  for (std::size_t f = 0; f < kFactorCount; ++f) {
    const double v = r.factor_ratio[f];
    if (!(v >= 0.0 && v <= 1.0)) {
      return who + fmt(": factor %zu ratio %g outside [0,1]", f, v);
    }
    if (r.factor_delay[f] < 0 || r.factor_delay[f] > transfer) {
      return who + fmt(": factor %zu delay %lld us exceeds the %lld us "
                       "transfer",
                       f, static_cast<long long>(r.factor_delay[f]),
                       static_cast<long long>(transfer));
    }
  }
  for (std::size_t g = 0; g < kGroupCount; ++g) {
    const double v = r.group_ratio[g];
    if (!(v >= 0.0 && v <= 1.0)) {
      return who + fmt(": group %zu ratio %g outside [0,1]", g, v);
    }
  }
  if (s.mech == Mechanism::kTimer200 && s.finished) {
    // One gap between consecutive ticks; the detector needs min_count gaps.
    const std::uint64_t ticks =
        (s.updates + kTimerMsgsPerTick - 1) / kTimerMsgsPerTick;
    constexpr std::uint64_t kMinGaps = 8;  // TimerGapOptions::min_count
    if (ticks > kMinGaps) {
      const TimerGapResult& t = a.findings.timer;
      const Micros err = t.timer - kTimerInterval;
      if (!t.detected || err > kMicrosPerMilli || err < -kMicrosPerMilli) {
        return who + fmt(": pacing timer %s (%.3f ms), generator ran %lld ms",
                         t.detected ? "off" : "not found",
                         static_cast<double>(t.timer) / 1e3,
                         static_cast<long long>(kTimerInterval / 1000));
      }
    }
  }
  if (s.mech == Mechanism::kProbeBug && s.finished &&
      !a.findings.zero_ack.detected) {
    return who + ": zero-window probe bug not flagged";
  }
  return "";
}

}  // namespace

std::vector<std::string> check_analysis(
    const TraceAnalysis& analysis, const CaptureTruth& capture,
    const std::vector<const SessionTruth*>& sessions) {
  std::string capture_fault;
  const PipelineStats& st = analysis.stats;
  if (st.records != capture.records || st.bytes_ingested != capture.bytes) {
    capture_fault = fmt("ingested %llu records / %llu bytes, generator wrote "
                        "%llu / %llu",
                        static_cast<unsigned long long>(st.records),
                        static_cast<unsigned long long>(st.bytes_ingested),
                        static_cast<unsigned long long>(capture.records),
                        static_cast<unsigned long long>(capture.bytes));
  } else if (analysis.connections.size() != sessions.size() ||
             analysis.results.size() != sessions.size()) {
    capture_fault = fmt("%zu connections for %zu sessions",
                        analysis.connections.size(), sessions.size());
  }
  std::vector<std::string> out(sessions.size(), capture_fault);
  if (!capture_fault.empty()) return out;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionTruth& s = *sessions[i];
    const ConnectionAnalysis* found = nullptr;
    std::size_t matches = 0;
    for (const ConnectionAnalysis& a : analysis.results) {
      if (a.key.ip_a == s.peer_ip || a.key.ip_b == s.peer_ip) {
        found = &a;
        ++matches;
      }
    }
    if (matches != 1) {
      out[i] = ipv4_string(s.peer_ip) + fmt(": %zu connections", matches);
      continue;
    }
    out[i] = check_session(*found, s);
  }
  return out;
}

std::string check_same_bytes(const char* what, const std::string& got,
                             const std::string& want) {
  if (got == want) return "";
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return fmt("%s differs: %zu vs %zu bytes, first difference at byte %zu",
             what, got.size(), want.size(), at);
}

GroupCounts expected_week_groups(const std::vector<SessionTruth>& sessions,
                                 std::size_t stamps_per_day) {
  GroupCounts want;
  for (const SessionTruth& s : sessions) {
    want[static_cast<std::size_t>(agg::RollupBy::kPeer)]
        [ipv4_string(s.peer_ip)] += stamps_per_day;
    want[static_cast<std::size_t>(agg::RollupBy::kAs)]
        ["AS" + std::to_string(s.peer_as)] += stamps_per_day;
    want[static_cast<std::size_t>(agg::RollupBy::kCollector)]
        [ipv4_string(s.collector_ip)] += stamps_per_day;
    for (std::size_t h = 0; h < stamps_per_day; ++h) {
      ++want[static_cast<std::size_t>(agg::RollupBy::kRun)]
            [stamp_run_id(s.capture, h)];
    }
  }
  return want;
}

std::string check_rollups(const agg::Archive& merged,
                          const std::array<agg::RollupReport, 4>& rollups,
                          const GroupCounts& want) {
  const std::uint64_t rows = merged.connections.size();
  for (std::size_t d = 0; d < rollups.size(); ++d) {
    const agg::RollupReport& rep = rollups[d];
    const char* dim = agg::to_string(rep.by);
    std::uint64_t sum = 0;
    for (const agg::RollupRow& row : rep.rows) {
      sum += row.transfer_us.count;
      const auto it = want[d].find(row.label);
      const std::uint64_t expected = it == want[d].end() ? 0 : it->second;
      if (row.transfer_us.count != expected) {
        return fmt("by %s: group %s has %llu sketched transfers, generator "
                   "made %llu sessions",
                   dim, row.label.c_str(),
                   static_cast<unsigned long long>(row.transfer_us.count),
                   static_cast<unsigned long long>(expected));
      }
    }
    if (sum != rows) {
      return fmt("by %s: sketch counts sum to %llu, merged archive has %llu "
                 "rows",
                 dim, static_cast<unsigned long long>(sum),
                 static_cast<unsigned long long>(rows));
    }
    if (rep.rows.size() != want[d].size()) {
      return fmt("by %s: %zu groups, generator made %zu", dim,
                 rep.rows.size(), want[d].size());
    }
  }
  return "";
}

std::vector<std::string> check_freshness(const std::vector<double>& freshness_ms,
                                         std::size_t blocks) {
  std::vector<std::string> out(blocks);
  for (std::size_t k = 0; k < blocks; ++k) {
    if (k >= freshness_ms.size() || !std::isfinite(freshness_ms[k]) ||
        freshness_ms[k] < 0) {
      out[k] = fmt("block %zu has no freshness sample", k);
    }
  }
  if (freshness_ms.size() > blocks) {
    out.push_back(fmt("%zu freshness samples for %zu blocks",
                      freshness_ms.size(), blocks));
  }
  return out;
}

}  // namespace perfbench
