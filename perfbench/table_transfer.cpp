// table-transfer (closed loop): a dozen concurrent full-table transfers, two
// per paper mechanism, analyzed from the capture file again and again at a
// fixed job count and rendered to agg and JSON each time — the batch
// `tdat analyze` path. Full-MSS segments make per-byte analysis nearly all
// of the wall time, so analysis changes show here; ingest, fleet and agg
// changes should not.
//
// One operation is one session checked in one analysis pass, or one fleet
// run; a round is kPassesPerRound passes and one fleet run, so fleet runs
// sample the whole run as the passes do.
#include "bench.hpp"
#include "core/report.hpp"
#include "fleet/coordinator.hpp"
#include "util/trace.hpp"

namespace perfbench {

using namespace tdat;

namespace {

// 10 rounds of 10 passes leave 10 samples beyond the 90th percentile.
constexpr std::size_t kPassesPerRound = 10;
constexpr std::size_t kMinRounds = 10;

}  // namespace

RunResult run_table_transfer(const RunConfig& cfg) {
  RunResult res;
  auto generated = generate_inputs(cfg, res.per_layer);
  if (!generated.ok()) {
    res.failures.push_back(generated.error());
    return res;
  }
  const Truth& truth = generated.value();
  const CaptureTruth& capture = truth.captures.front();
  std::vector<const SessionTruth*> sessions;
  for (const SessionTruth& s : truth.sessions) sessions.push_back(&s);

  AnalyzerOptions opts;
  opts.jobs = kAnalysisJobs;
  ReportRenderOptions ropts;
  ropts.run_id = "table-transfer";

  // One pass: open -> analyze -> render agg + JSON. Returns its wall time.
  auto pass = [&](TraceAnalysis& out) -> double {
    // Free the previous pass's result first, untimed: a CLI run holds one.
    out = TraceAnalysis{};
    TDAT_TRACE_SPAN("bench.pass", "bench");
    const Clock::time_point t0 = Clock::now();
    auto analysis = analyze_file(capture.path, opts);
    if (!analysis.ok()) return -1;
    out = std::move(analysis).value();
    const ReportModel model = build_report_model(out);
    const std::string a = render_report(model, ReportFormat::kAgg, ropts);
    const std::string j = render_report(model, ReportFormat::kJson, ropts);
    const double wall = seconds_since(t0);
    return a.empty() || j.empty() ? -1 : wall;
  };

  // Warm-up: page cache, allocator and pool reach steady state untimed.
  TraceAnalysis analysis;
  if (pass(analysis) < 0) {
    res.failures.push_back("cannot analyze " + capture.path);
    return res;
  }
  res.end_to_end.set("setup_s", seconds_since(cfg.process_start), "s");

  // Fleet archives are checked against the warm-up's batch archive.
  const std::string batch_agg =
      render_report(build_report_model(analysis), ReportFormat::kAgg, ropts);
  const fleet::FleetOptions fopts = fleet_options(ropts.run_id);

  if (cfg.trace) trace_start();
  std::vector<double> mb_per_s;
  std::vector<double> pass_ms;
  FleetLayer fleet_layer;
  const Clock::time_point run0 = Clock::now();
  std::size_t rounds = 0;
  while (rounds < kMinRounds || seconds_since(run0) < cfg.seconds) {
    ++rounds;
    for (std::size_t i = 0; i < kPassesPerRound; ++i) {
      const double wall = pass(analysis);
      if (wall < 0) {
        for (std::size_t k = 0; k < sessions.size(); ++k) {
          res.record_error("analysis failed");
        }
        continue;
      }
      pass_ms.push_back(wall * 1e3);
      mb_per_s.push_back(static_cast<double>(capture.bytes) / wall / 1e6);
      for (const std::string& v : check_analysis(analysis, capture, sessions)) {
        res.record(v);
      }
    }
    // The same capture through `tdat fleet`.
    TDAT_TRACE_SPAN("bench.fleet", "bench");
    const Clock::time_point f0 = Clock::now();
    auto outcome = fleet::run_fleet(capture.path, fopts);
    const double wall = seconds_since(f0);
    if (!outcome.ok()) {
      res.record_error("fleet: " + outcome.error());
      continue;
    }
    fleet_layer.add(outcome.value().stats, capture.bytes, wall);
    res.record(check_same_bytes("fleet archive vs batch agg",
                                outcome.value().archive.serialize(), batch_agg));
  }
  res.trace_norm = static_cast<double>(rounds * kPassesPerRound);

  res.end_to_end.set("analyze_mb_per_s", quantile(mb_per_s, kRateQuantile),
                     "MB/s");
  res.end_to_end.set("freshness_ms_tail", quantile(pass_ms, kTailQuantile),
                     "ms");
  res.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (cfg.trace) {
    probe_layers(capture.path, ropts.run_id, res.per_layer);
    if (!trace_stop(cfg.workdir + "/trace-run.json")) {
      res.failures.push_back("cannot write the trace");
    }
  }
  fleet_layer.report(res.per_layer);
  return res;
}

}  // namespace perfbench
