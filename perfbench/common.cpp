// Measurement helpers shared by the workloads, and the per-layer probes a
// traced run makes over one capture from outside the program.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "core/report.hpp"
#include "core/trace_source.hpp"
#include "fleet/shard_plan.hpp"
#include "pcap/decode_batch.hpp"
#include "tcp/connection.hpp"
#include "util/alloc_hook.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace perfbench {

using namespace tdat;

double quantile(std::vector<double> xs, double q) {
  return xs.empty() ? 0 : percentile(std::move(xs), q * 100);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, v] : values) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  values.push_back({name, {value, unit}});
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(v.first) ? v.first : 0.0);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           v.second + "\"}";
  }
  return out + "}";
}

void RunResult::record(const std::string& verdict) {
  if (!verdict.empty()) correct = false;
  record_error(verdict);
}

void RunResult::record_error(const std::string& why) {
  ++attempted;
  if (why.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string result_line(const RunResult& res) {
  std::string failures = "[";
  for (const std::string& f : res.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_string(f);
  }
  failures += "]";
  char counts[160];
  std::snprintf(counts, sizeof(counts),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
  char norm[64];
  std::snprintf(norm, sizeof(norm), "%.17g", res.trace_norm);
  return std::string(counts) + "\"end_to_end\": " + res.end_to_end.to_json() +
         ", \"per_layer\": " + res.per_layer.to_json() +
         ", \"trace_norm\": " + norm + ", \"failures\": " + failures + "}";
}

fleet::FleetOptions fleet_options(const std::string& run_id) {
  const unsigned cores = std::thread::hardware_concurrency();
  fleet::FleetOptions opts;
  opts.workers = std::clamp<std::size_t>(cores > 2 ? cores - 2 : 1, 1, 2);
  opts.shards = 4 * opts.workers;
  opts.run_id = run_id;
  return opts;
}

void FleetLayer::add(const fleet::FleetStats& st, std::uint64_t bytes,
                     double wall_s) {
  mb_per_s.push_back(static_cast<double>(bytes) / wall_s / 1e6);
  const double span_s =
      static_cast<double>(st.total_wall_us - st.plan_wall_us) / 1e6;
  double busy = 0;
  double slowest = 0;
  for (const fleet::WorkerStats& w : st.per_worker) {
    const double b = static_cast<double>(w.busy_us) / 1e6;
    busy += b;
    slowest = std::max(slowest, b);
  }
  plan_s.push_back(static_cast<double>(st.plan_wall_us) / 1e6);
  busy_s.push_back(busy);
  idle_s.push_back(span_s * static_cast<double>(st.per_worker.size()) - busy);
  overhead_s.push_back(span_s - slowest);
}

void FleetLayer::report(MetricSet& out) const {
  out.set("fleet.mb_per_s", median(mb_per_s), "MB/s");
  out.set("fleet.plan_s", median(plan_s), "s");
  out.set("fleet.worker_busy_s", median(busy_s), "s");
  out.set("fleet.worker_idle_s", median(idle_s), "s");
  out.set("fleet.overhead_s", median(overhead_s), "s");
}

void probe_layers(const std::string& capture_path, const std::string& run_id,
                  MetricSet& out) {
  TDAT_TRACE_SPAN("bench.probe_layers", "bench");
  // pcap: the capture streamed and batch-decoded, nothing else.
  auto opened = PcapStreamSource::open(capture_path, false);
  if (!opened.ok()) return;
  PcapStreamSource& source = opened.value();
  std::vector<StreamRecord> recs(4096);
  std::vector<DecodedPacket> packets;
  DecodeScratch scratch;
  std::size_t index = 0;
  const Clock::time_point i0 = Clock::now();
  {
    TDAT_TRACE_SPAN("bench.pcap_ingest", "bench");
    for (;;) {
      const std::size_t n = source.next_raw_records(recs);
      if (n == 0) break;
      const std::span<const StreamRecord> batch(recs.data(), n);
      for (std::size_t off = 0; off < n;) {
        off += decode_records(batch.subspan(off), index + off, false, scratch,
                              packets);
      }
      index += n;
    }
  }
  const double ingest_s = seconds_since(i0);
  out.set("pcap.ingest_mb_per_s",
          static_cast<double>(source.bytes_ingested()) / ingest_s / 1e6,
          "MB/s");
  out.set("pcap.records", static_cast<double>(source.records_seen()), "count");

  // tcp: connection demux over the decoded packets.
  ConnectionDemux demux;
  const Clock::time_point d0 = Clock::now();
  {
    TDAT_TRACE_SPAN("bench.tcp_demux", "bench");
    for (DecodedPacket& p : packets) demux.add(std::move(p));
  }
  const std::vector<Connection> conns = demux.take();
  out.set("tcp.demux_s", seconds_since(d0), "s");
  out.set("tcp.connections", static_cast<double>(conns.size()), "count");

  // core: one analyze_connection per connection, then the allocations of a
  // warm repeat of the same call.
  AnalyzerOptions opts;
  AnalysisScratch ascratch;
  ConnectionAnalysis result;
  std::vector<double> conn_ms;
  double allocs = 0;
  for (const Connection& c : conns) {
    TDAT_TRACE_SPAN("bench.analyze_connection", "bench");
    const Clock::time_point c0 = Clock::now();
    analyze_connection(c, opts, ascratch, result);
    conn_ms.push_back(seconds_since(c0) * 1e3);
    const std::uint64_t a0 = thread_alloc_count();
    analyze_connection(c, opts, ascratch, result);
    allocs += static_cast<double>(thread_alloc_count() - a0);
  }
  out.set("core.conn_ms_p50", median(conn_ms), "ms");
  out.set("core.conn_ms_max",
          conn_ms.empty() ? 0 : *std::max_element(conn_ms.begin(), conn_ms.end()),
          "ms");
  out.set("core.allocs_per_conn",
          conns.empty() ? 0 : allocs / static_cast<double>(conns.size()),
          "count");

  // core: the report model and the agg + JSON renderings of a batch run.
  AnalyzerOptions bopts;
  bopts.jobs = kAnalysisJobs;
  auto analysis = analyze_file(capture_path, bopts);
  if (!analysis.ok()) return;
  const Clock::time_point r0 = Clock::now();
  {
    TDAT_TRACE_SPAN("bench.report", "bench");
    const ReportModel model = build_report_model(analysis.value());
    ReportRenderOptions ropts;
    ropts.run_id = run_id;
    const std::string a = render_report(model, ReportFormat::kAgg, ropts);
    const std::string j = render_report(model, ReportFormat::kJson, ropts);
    if (a.empty() || j.empty()) return;
  }
  out.set("core.report_ms", seconds_since(r0) * 1e3, "ms");

  // fleet: the shard plan's offset runs.
  auto plan = fleet::build_shard_plan(capture_path,
                                      fleet_options(run_id).shards);
  if (!plan.ok()) return;
  std::size_t runs = 0;
  for (const auto& shard : plan.value().shards) runs += shard.runs.size();
  out.set("fleet.plan_runs", static_cast<double>(runs), "count");
}

}  // namespace perfbench
