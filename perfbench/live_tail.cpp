// live-tail (open loop): full-table transfers that start one after another
// and then idle on keepalives are appended to a growing capture file in
// fixed-size blocks at a fixed byte rate, each block stamped with its due
// time, while a LiveEngine over a FollowSource runs epochs the way
// `tdat watch` does — an agg snapshot and a checkpoint every
// kSnapshotEvery blocks. At the end the engine drains, and fresh engines
// restore from the last checkpoint and drain too. Every epoch re-analyzes
// each dirty connection from its whole history (DESIGN.md §15), a cost no
// batch workload has.
//
// One operation is one appended block reflected by the engine; the drain,
// each restore and each fleet run over the final capture are one more.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/live.hpp"
#include "core/live_source.hpp"
#include "core/report.hpp"
#include "fleet/coordinator.hpp"
#include "util/trace.hpp"

namespace perfbench {

using namespace tdat;

namespace {

constexpr std::size_t kBlockBytes = 64 * 1024;
constexpr double kBytesPerSec = 1.0e6;
constexpr std::size_t kSnapshotEvery = 32;  // blocks between snapshots
constexpr auto kPoll = std::chrono::milliseconds(2);
constexpr int kRestores = 3;
constexpr int kFleetRuns = 7;

// Reads exactly `n` bytes at `off`; false on an error or end of file.
bool read_at(int fd, std::uint8_t* p, std::size_t n, std::uint64_t off) {
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
    off += static_cast<std::uint64_t>(r);
  }
  return true;
}

// End offsets of the records of the pcap file `fd` that end at or before
// `limit`, walked from the 16-byte record headers alone.
std::vector<std::uint64_t> record_ends(int fd, std::uint64_t limit) {
  std::vector<std::uint64_t> ends;
  std::uint64_t off = 24;
  std::uint8_t header[16];
  while (read_at(fd, header, sizeof(header), off)) {
    std::uint32_t incl = 0;
    std::memcpy(&incl, header + 8, 4);
    const std::uint64_t end = off + sizeof(header) + incl;
    if (end > limit) break;
    ends.push_back(end);
    off = end;
  }
  return ends;
}

bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Stamps and writes a checkpoint the way `tdat watch` does after a snapshot.
Result<Unit> write_checkpoint(const LiveEngine& engine,
                              const FollowSource& source,
                              const std::string& capture,
                              const std::string& path) {
  if (!source.checkpointable()) return Error{"capture not checkpointable"};
  LiveCheckpoint ckpt;
  if (auto st = engine.checkpoint_state(ckpt); !st.ok()) return st;
  auto id = compute_capture_identity(capture);
  if (!id.ok()) return Error{id.error()};
  ckpt.capture = id.value();
  const PcapStream::Resume resume = source.resume_state();
  ckpt.resume_offset = resume.offset;
  ckpt.records_seen = resume.records;
  ckpt.stream_last_ts = resume.last_ts;
  ckpt.diag = resume.diag;
  return write_checkpoint_file(path, ckpt);
}

// A restarted daemon: read and validate the checkpoint, restore a fresh
// engine from it, then drain. Returns the drained agg snapshot; `set_up_s`
// gets the time up to the end of restore_state.
Result<std::string> restore_and_drain(const std::string& capture,
                                      const std::string& ckpt_path,
                                      const LiveOptions& lopts,
                                      double& set_up_s) {
  const Clock::time_point t0 = Clock::now();
  auto loaded = read_checkpoint_file(ckpt_path);
  if (!loaded.ok()) return Error{loaded.error()};
  const LiveCheckpoint& ckpt = loaded.value();
  if (auto id = validate_capture_identity(ckpt.capture, capture); !id.ok()) {
    return Error{id.error()};
  }
  PcapStream::Resume resume;
  resume.offset = ckpt.resume_offset;
  resume.records = ckpt.records_seen;
  resume.last_ts = ckpt.stream_last_ts;
  resume.diag = ckpt.diag;
  FollowSource source(capture, false, IngestPolicy{}, resume);
  LiveEngine engine(source, lopts);
  {
    TDAT_TRACE_SPAN("bench.restore", "bench");
    if (auto r = engine.restore_state(ckpt, capture); !r.ok()) {
      return Error{r.error()};
    }
  }
  set_up_s = seconds_since(t0);
  engine.drain();
  if (source.failed()) return Error{source.error()};
  return engine.render_snapshot(ReportFormat::kAgg);
}

}  // namespace

RunResult run_live_tail(const RunConfig& cfg) {
  RunResult res;
  const auto target = static_cast<std::uint64_t>(cfg.seconds * kBytesPerSec);
  auto generated = generate_inputs(cfg, res.per_layer, target + target / 4);
  if (!generated.ok()) {
    res.failures.push_back(generated.error());
    return res;
  }
  const Truth& truth = generated.value();

  // The append schedule: the generated capture's leading records, up to
  // the target length, copied block by block so the benchmark never holds
  // more of it than one block.
  const std::string& source_path = truth.captures.front().path;
  const int src = ::open(source_path.c_str(), O_RDONLY);
  if (src < 0) {
    res.failures.push_back("cannot open " + source_path);
    return res;
  }
  struct CloseOnExit {
    int fd;
    ~CloseOnExit() { ::close(fd); }
  } close_src{src};
  struct stat src_st {};
  if (::fstat(src, &src_st) != 0) {
    res.failures.push_back("cannot stat " + source_path);
    return res;
  }
  const std::vector<std::uint64_t> ends = record_ends(
      src, std::min(target, static_cast<std::uint64_t>(src_st.st_size)));
  if (ends.empty()) {
    res.failures.push_back("generated capture is empty");
    return res;
  }
  const std::uint64_t cut = ends.back();
  const std::uint64_t records = ends.size();
  const std::size_t blocks = (cut + kBlockBytes - 1) / kBlockBytes;
  // reflect[k]: the capture bytes an engine must have ingested to have seen
  // the last record completed by block k.
  std::vector<std::uint64_t> reflect(blocks);
  for (std::size_t k = 0; k < blocks; ++k) {
    const std::uint64_t end = std::min<std::uint64_t>((k + 1) * kBlockBytes, cut);
    const auto it = std::upper_bound(ends.begin(), ends.end(), end);
    reflect[k] = it == ends.begin() ? 24 : *(it - 1);
  }
  // The sessions the appended records hold; a session counts as finished
  // only when its whole table is among them.
  std::vector<SessionTruth> appended;
  for (SessionTruth s : truth.sessions) {
    if (s.first_record >= records) continue;
    s.finished = s.finished && s.table_records <= records;
    appended.push_back(s);
  }
  const std::string capture = cfg.workdir + "/live.pcap";
  const std::string ckpt_path = cfg.workdir + "/live.tdckpt";
  const int fd = ::open(capture.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    res.failures.push_back("cannot create " + capture);
    return res;
  }

  LiveOptions lopts;
  lopts.analyzer.jobs = kAnalysisJobs;
  FollowSource source(capture, false);
  std::optional<LiveEngine> engine(std::in_place, source, lopts);
  res.end_to_end.set("setup_s", seconds_since(cfg.process_start), "s");

  if (cfg.trace) trace_start();
  const Clock::time_point t0 = Clock::now();
  const auto due = [&](std::size_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(k * kBlockBytes) / kBytesPerSec));
  };
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  std::vector<double> late_ms(blocks, 0);
  std::atomic<bool> append_ok{true};
  std::thread appender([&] {
    std::vector<std::uint8_t> block(kBlockBytes);
    for (std::size_t k = 0; k < blocks; ++k) {
      std::this_thread::sleep_until(due(k));
      TDAT_TRACE_SPAN("bench.append", "bench");
      const std::uint64_t begin = k * kBlockBytes;
      const std::size_t n = std::min<std::uint64_t>(kBlockBytes, cut - begin);
      if (!read_at(src, block.data(), n, begin) ||
          !write_all(fd, block.data(), n)) {
        append_ok = false;
        break;
      }
      late_ms[k] = ms(Clock::now() - due(k));
    }
  });
  // Joins on every way out of this scope, before what the thread uses dies.
  struct JoinOnExit {
    std::thread& t;
    ~JoinOnExit() {
      if (t.joinable()) t.join();
    }
  } join_appender{appender};

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> fresh_ms(blocks, nan);
  std::vector<double> wait_ms;
  std::vector<double> epoch_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> checkpoint_ms;
  double busy_s = 0;
  std::size_t next = 0;  // first block not yet reflected
  std::uint64_t checkpoint_bytes = 0;
  bool checkpoint_ok = false;
  const Clock::time_point hard_stop =
      t0 + std::chrono::seconds(static_cast<long>(cfg.seconds * 3 + 30));
  {
    TDAT_TRACE_SPAN("bench.pass", "bench");
    while (next < blocks && Clock::now() < hard_stop) {
      const Clock::time_point e0 = Clock::now();
      const std::size_t n = engine->run_epoch();
      const Clock::time_point e1 = Clock::now();
      busy_s += std::chrono::duration<double>(e1 - e0).count();
      if (n == 0) {
        if (!append_ok || source.failed()) break;
        if (!engine->poll_source()) std::this_thread::sleep_for(kPoll);
        continue;
      }
      epoch_ms.push_back(ms(e1 - e0));
      const std::uint64_t ingested = source.bytes_ingested();
      const std::size_t before = next;
      while (next < blocks && reflect[next] <= ingested) {
        fresh_ms[next] = ms(e1 - due(next));
        wait_ms.push_back(std::max(0.0, ms(e0 - due(next))));
        ++next;
      }
      if (next / kSnapshotEvery != before / kSnapshotEvery) {
        const Clock::time_point s0 = Clock::now();
        const std::string snap = engine->render_snapshot(ReportFormat::kAgg);
        const Clock::time_point s1 = Clock::now();
        checkpoint_ok =
            write_checkpoint(*engine, source, capture, ckpt_path).ok();
        const Clock::time_point s2 = Clock::now();
        snapshot_ms.push_back(ms(s1 - s0));
        checkpoint_ms.push_back(ms(s2 - s1));
        busy_s += std::chrono::duration<double>(s2 - s0).count();
        if (snap.empty()) checkpoint_ok = false;
      }
    }
  }
  appender.join();
  ::close(fd);
  const PipelineStats live_stats = engine->pipeline_stats();
  const std::uint64_t live_packets = engine->stats().packets;
  const std::size_t retained = engine->retained_packets();

  // Operations: one per block, each needing exactly one freshness sample.
  for (const std::string& v : check_freshness(fresh_ms, blocks)) res.record(v);

  // The drain: the batch analysis of the final capture against what the
  // generator built, and the drained engine against that batch run.
  engine->drain();
  const std::string drained = engine->render_snapshot(ReportFormat::kAgg);
  const PipelineStats drained_stats = engine->pipeline_stats();
  engine.reset();
  AnalyzerOptions bopts;
  bopts.jobs = kAnalysisJobs;
  std::string batch;
  std::string drain_error;
  std::string drain_fault;
  {
    TDAT_TRACE_SPAN("bench.batch", "bench");
    auto analysis = analyze_file(capture, bopts);
    if (analysis.ok()) {
      batch = render_report(build_report_model(analysis.value()),
                            ReportFormat::kAgg);
      std::vector<const SessionTruth*> sessions;
      for (const SessionTruth& s : appended) sessions.push_back(&s);
      for (const std::string& v : check_analysis(
               analysis.value(), CaptureTruth{capture, records, cut},
               sessions)) {
        if (drain_fault.empty() && !v.empty()) drain_fault = "batch: " + v;
      }
    } else {
      drain_error = "batch analysis: " + analysis.error();
    }
  }
  if (drain_fault.empty()) {
    drain_fault = check_same_bytes("drained snapshot vs batch agg", drained,
                                   batch);
  }
  if (drain_fault.empty() && (drained_stats.records != records ||
                              drained_stats.bytes_ingested != cut)) {
    drain_fault = "engine ingested " + std::to_string(drained_stats.records) +
                  " records / " + std::to_string(drained_stats.bytes_ingested) +
                  " bytes, appender wrote " + std::to_string(records) + " / " +
                  std::to_string(cut);
  }
  if (!checkpoint_ok) drain_error = "the last snapshot or checkpoint failed";
  if (drain_error.empty()) {
    res.record(drain_fault);
  } else {
    res.record_error(drain_error);
  }

  // Restarted daemons, against the uninterrupted engine.
  std::vector<double> restore_s;
  for (int i = 0; i < kRestores; ++i) {
    double set_up = 0;
    auto restored = restore_and_drain(capture, ckpt_path, lopts, set_up);
    if (!restored.ok()) {
      res.record_error("restore: " + restored.error());
      continue;
    }
    restore_s.push_back(set_up);
    res.record(check_same_bytes("restored engine vs uninterrupted engine",
                                restored.value(), drained));
  }

  // The final capture through `tdat fleet`.
  FleetLayer fleet_layer;
  for (int i = 0; i < kFleetRuns; ++i) {
    const fleet::FleetOptions fopts = fleet_options("");
    const Clock::time_point f0 = Clock::now();
    auto outcome = fleet::run_fleet(capture, fopts);
    const double wall = seconds_since(f0);
    if (!outcome.ok()) {
      res.record_error("fleet: " + outcome.error());
      continue;
    }
    fleet_layer.add(outcome.value().stats, cut, wall);
    res.record(check_same_bytes("fleet archive vs batch agg",
                                outcome.value().archive.serialize(), batch));
  }

  // The live engine's analysis rate: appended bytes per second it was busy.
  res.end_to_end.set("analyze_mb_per_s",
                     static_cast<double>(cut) / busy_s / 1e6, "MB/s");
  // The blocks the engine reflected: all of them, unless check_freshness
  // failed the others.
  std::vector<double> fresh;
  for (const double f : fresh_ms) {
    if (std::isfinite(f)) fresh.push_back(f);
  }
  res.end_to_end.set("freshness_ms_tail", quantile(fresh, kTailQuantile),
                     "ms");
  res.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");

  MetricSet& pl = res.per_layer;
  if (cfg.trace) {
    probe_layers(capture, "", pl);
    if (!trace_stop(cfg.workdir + "/trace-run.json")) {
      res.failures.push_back("cannot write the trace");
    }
  }
  fleet_layer.report(pl);
  pl.set("live.busy_s", busy_s, "s");
  pl.set("live.restore_s", median(restore_s), "s");
  pl.set("live.freshness_ms_p50", median(fresh), "ms");
  pl.set("live.append_late_ms_max",
         *std::max_element(late_ms.begin(), late_ms.end()), "ms");
  // A backlog that grows over the run shows as later blocks fresher-late.
  const std::size_t quarter = fresh.size() / 4;
  pl.set("live.fresh_first_quarter_ms_p50",
         median({fresh.begin(), fresh.begin() + quarter}), "ms");
  pl.set("live.fresh_last_quarter_ms_p50",
         median({fresh.end() - quarter, fresh.end()}), "ms");
  pl.set("live.epoch_ms_p50", median(epoch_ms), "ms");
  pl.set("live.epoch_ms_max",
         epoch_ms.empty() ? 0 : *std::max_element(epoch_ms.begin(), epoch_ms.end()),
         "ms");
  pl.set("live.wait_ms_p50", median(wait_ms), "ms");
  pl.set("live.ingest_s", to_seconds(live_stats.ingest_wall), "s");
  pl.set("live.analyze_s", to_seconds(live_stats.analyze_wall), "s");
  pl.set("live.analyze_us_per_packet",
         live_packets == 0 ? 0
                           : static_cast<double>(live_stats.analyze_wall) /
                                 static_cast<double>(live_packets),
         "us");
  pl.set("live.snapshot_ms_p50", median(snapshot_ms), "ms");
  pl.set("live.checkpoint_ms_p50", median(checkpoint_ms), "ms");
  struct stat st {};
  if (::stat(ckpt_path.c_str(), &st) == 0) checkpoint_bytes = st.st_size;
  pl.set("live.checkpoint_kb", static_cast<double>(checkpoint_bytes) / 1024.0,
         "KB");
  pl.set("live.retained_packets", static_cast<double>(retained), "count");
  return res;
}

}  // namespace perfbench
