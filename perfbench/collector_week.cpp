// collector-week (closed loop): a week of daily collector captures, each of
// hundreds of peers over many ASes and four collectors with small tables
// and long keepalive-only tails, so minimum-size segments dominate. A round
// analyzes every day in-process at the job count table-transfer uses and
// through `tdat fleet` with forked workers into a run-stamped archive, then
// folds the week — the daily archives re-stamped as two-hourly runs —
// through parse, merge, the four roll-ups and a half-week diff, the way
// `tdat aggregate` does. Per-record ingest and demux, per-connection fixed
// cost, the fleet's plan/wire/merge and the result store's fold dominate
// here and are near-idle in the other two workloads.
//
// One operation is one fleet run, one in-process run, or the week's fold.
#include "agg/archive.hpp"
#include "agg/rollup.hpp"
#include "bench.hpp"
#include "core/report.hpp"
#include "fleet/coordinator.hpp"
#include "util/trace.hpp"

namespace perfbench {

using namespace tdat;

namespace {

// Seven freshness samples per round; 15 rounds leave 10 beyond the 90th
// percentile.
constexpr std::size_t kMinRounds = 15;

// Renames every row and sketch of `bytes` to `run_id`.
Result<std::string> restamp(const std::string& bytes, const std::string& run_id) {
  auto parsed = agg::parse_archive(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  if (!parsed.ok()) return Error{parsed.error()};
  agg::Archive a = std::move(parsed).value();
  for (agg::ConnectionRecord& c : a.connections) c.run_id = run_id;
  for (agg::SketchGroup& g : a.sketches) g.key.run_id = run_id;
  a.normalize();
  return a.serialize();
}

struct FoldTimes {
  double parse_s = 0;
  double merge_s = 0;
  double rollup_s = 0;
  double diff_s = 0;
  [[nodiscard]] double total() const {
    return parse_s + merge_s + rollup_s + diff_s;
  }
};

// The week's fold, as `tdat aggregate` does it: parse every archive, merge
// the two half-weeks and the whole week, roll the week up along all four
// dimensions, and diff the halves. Returns "" or the check's verdict.
std::string fold_week(const std::vector<std::string>& archives,
                      const GroupCounts& want, FoldTimes& t,
                      agg::Archive& merged) {
  TDAT_TRACE_SPAN("bench.fold", "bench");
  std::vector<agg::Archive> parsed;
  parsed.reserve(archives.size());
  Clock::time_point t0 = Clock::now();
  {
    TDAT_TRACE_SPAN("bench.agg_parse", "bench");
    for (const std::string& bytes : archives) {
      auto a = agg::parse_archive(std::span(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
      if (!a.ok()) return "parse: " + a.error();
      parsed.push_back(std::move(a).value());
    }
  }
  t.parse_s = seconds_since(t0);
  t0 = Clock::now();
  agg::Archive first;
  agg::Archive second;
  {
    TDAT_TRACE_SPAN("bench.agg_merge", "bench");
    const std::size_t half = parsed.size() / 2;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      (i < half ? first : second).merge_from(parsed[i]);
    }
    merged = first;
    merged.merge_from(second);
  }
  t.merge_s = seconds_since(t0);
  t0 = Clock::now();
  std::array<agg::RollupReport, 4> rollups;
  {
    TDAT_TRACE_SPAN("bench.agg_rollup", "bench");
    for (std::size_t d = 0; d < rollups.size(); ++d) {
      rollups[d] = agg::build_rollup(merged, static_cast<agg::RollupBy>(d));
    }
  }
  t.rollup_s = seconds_since(t0);
  t0 = Clock::now();
  agg::RollupDiff diff;
  {
    TDAT_TRACE_SPAN("bench.agg_diff", "bench");
    diff = agg::diff_rollups(first, second);
  }
  t.diff_s = seconds_since(t0);
  if (diff.deltas.empty()) return "half-week diff has no groups";
  return check_rollups(merged, rollups, want);
}

}  // namespace

RunResult run_collector_week(const RunConfig& cfg) {
  RunResult res;
  auto generated = generate_inputs(cfg, res.per_layer);
  if (!generated.ok()) {
    res.failures.push_back(generated.error());
    return res;
  }
  const Truth& truth = generated.value();
  const std::size_t days = truth.captures.size();
  std::vector<std::vector<const SessionTruth*>> day_sessions(days);
  for (const SessionTruth& s : truth.sessions) {
    day_sessions.at(s.capture).push_back(&s);
  }
  const GroupCounts want = expected_week_groups(truth.sessions, kStampsPerDay);

  AnalyzerOptions opts;
  opts.jobs = kAnalysisJobs;

  // One in-process run of day d: open -> analyze -> render agg + JSON.
  auto in_process = [&](std::size_t d, std::string& agg_out,
                        std::string& verdict) -> double {
    TDAT_TRACE_SPAN("bench.pass", "bench");
    const Clock::time_point t0 = Clock::now();
    auto analysis = analyze_file(truth.captures[d].path, opts);
    if (!analysis.ok()) {
      verdict = "analyze: " + analysis.error();
      return -1;
    }
    const ReportModel model = build_report_model(analysis.value());
    ReportRenderOptions ropts;
    ropts.run_id = day_run_id(d);
    agg_out = render_report(model, ReportFormat::kAgg, ropts);
    const std::string json = render_report(model, ReportFormat::kJson, ropts);
    const double wall = seconds_since(t0);
    verdict = json.empty() ? "empty JSON report" : "";
    for (const std::string& v :
         check_analysis(analysis.value(), truth.captures[d], day_sessions[d])) {
      if (verdict.empty() && !v.empty()) verdict = day_run_id(d) + ": " + v;
    }
    return wall;
  };

  // Warm-up, and the week of run archives the fold reads: each day's
  // archive re-stamped as kStampsPerDay runs.
  std::vector<std::string> day_agg(days);
  std::vector<std::string> week;
  for (std::size_t d = 0; d < days; ++d) {
    std::string verdict;
    if (in_process(d, day_agg[d], verdict) < 0) {
      res.failures.push_back(verdict);
      return res;
    }
    for (std::size_t h = 0; h < kStampsPerDay; ++h) {
      auto stamped = restamp(day_agg[d], stamp_run_id(d, h));
      if (!stamped.ok()) {
        res.failures.push_back("restamp: " + stamped.error());
        return res;
      }
      week.push_back(std::move(stamped).value());
    }
  }
  std::uint64_t week_bytes = 0;
  for (const std::string& a : week) week_bytes += a.size();
  res.end_to_end.set("setup_s", seconds_since(cfg.process_start), "s");

  if (cfg.trace) trace_start();
  std::vector<double> analyze_mb_per_s;
  std::vector<double> fresh_ms;
  std::vector<double> fold_s, parse_mb_per_s, merge_s, rollup_ms, diff_ms;
  FleetLayer fleet_layer;
  std::size_t rounds = 0;
  std::uint64_t rows = 0;
  const Clock::time_point run0 = Clock::now();
  while (rounds < kMinRounds || seconds_since(run0) < cfg.seconds) {
    ++rounds;
    std::vector<double> fleet_wall(days, 0);
    for (std::size_t d = 0; d < days; ++d) {
      std::string archive;
      std::string verdict;
      const double wall = in_process(d, archive, verdict);
      if (wall < 0) {
        res.record_error(verdict);
        continue;
      }
      analyze_mb_per_s.push_back(
          static_cast<double>(truth.captures[d].bytes) / wall / 1e6);
      if (verdict.empty()) {
        verdict = check_same_bytes("in-process archive vs warm-up archive",
                                   archive, day_agg[d]);
      }
      res.record(verdict);
    }
    for (std::size_t d = 0; d < days; ++d) {
      const fleet::FleetOptions fopts = fleet_options(day_run_id(d));
      const Clock::time_point f0 = Clock::now();
      auto outcome = [&] {
        TDAT_TRACE_SPAN("bench.fleet", "bench");
        return fleet::run_fleet(truth.captures[d].path, fopts);
      }();
      fleet_wall[d] = seconds_since(f0);
      if (!outcome.ok()) {
        res.record_error("fleet " + day_run_id(d) + ": " + outcome.error());
        continue;
      }
      res.record(check_same_bytes("fleet archive vs in-process archive",
                                  outcome.value().archive.serialize(),
                                  day_agg[d]));
      fleet_layer.add(outcome.value().stats, truth.captures[d].bytes,
                      fleet_wall[d]);
    }
    FoldTimes ft;
    agg::Archive merged;
    std::string verdict = fold_week(week, want, ft, merged);
    const std::uint64_t want_rows = truth.sessions.size() * kStampsPerDay;
    if (verdict.empty() && merged.connections.size() != want_rows) {
      verdict = "merged week has " + std::to_string(merged.connections.size()) +
                " rows, generator made " + std::to_string(want_rows);
    }
    res.record(verdict);
    rows = merged.connections.size();
    fold_s.push_back(ft.total());
    parse_mb_per_s.push_back(static_cast<double>(week_bytes) / ft.parse_s / 1e6);
    merge_s.push_back(ft.merge_s);
    rollup_ms.push_back(ft.rollup_s * 1e3);
    diff_ms.push_back(ft.diff_s * 1e3);
    // A day's capture reaches the week's report after its fleet run and
    // the fold that follows.
    for (std::size_t d = 0; d < days; ++d) {
      fresh_ms.push_back((fleet_wall[d] + ft.total()) * 1e3);
    }
  }
  res.trace_norm = static_cast<double>(rounds);
  res.end_to_end.set("analyze_mb_per_s",
                     quantile(analyze_mb_per_s, kRateQuantile), "MB/s");
  res.end_to_end.set("freshness_ms_tail", quantile(fresh_ms, kTailQuantile),
                     "ms");
  res.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");

  MetricSet& pl = res.per_layer;
  if (cfg.trace) {
    probe_layers(truth.captures.front().path, day_run_id(0), pl);
    agg::Archive merged;
    FoldTimes ft;
    (void)fold_week(week, want, ft, merged);
    const Clock::time_point s0 = Clock::now();
    const std::string bytes = merged.serialize();
    pl.set("agg.serialize_ms", seconds_since(s0) * 1e3, "ms");
    if (bytes.empty()) res.failures.push_back("empty merged archive");
    if (!trace_stop(cfg.workdir + "/trace-run.json")) {
      res.failures.push_back("cannot write the trace");
    }
  }
  fleet_layer.report(pl);
  pl.set("agg.fold_s", median(fold_s), "s");
  pl.set("agg.parse_mb_per_s", median(parse_mb_per_s), "MB/s");
  pl.set("agg.merge_s", median(merge_s), "s");
  pl.set("agg.rollup_ms", median(rollup_ms), "ms");
  pl.set("agg.diff_ms", median(diff_ms), "ms");
  pl.set("agg.rows", static_cast<double>(rows), "count");
  return res;
}

}  // namespace perfbench
