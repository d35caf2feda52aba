// Self-test of the benchmark's correctness checks: each check must accept
// the program's real output and reject that output with one thing wrong.
// Generates the table-transfer inputs (seed 1) into the directory given as
// argv[1], analyzes them once, then feeds every check one wrong output.
//
//   perfbench_selftest DIR      (or: python3 perfbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>

#include "agg/sink.hpp"
#include "bench.hpp"
#include "core/report.hpp"

namespace {

using namespace perfbench;
using namespace tdat;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool any_fault(const std::vector<std::string>& verdicts) {
  for (const std::string& v : verdicts) {
    if (!v.empty()) return true;
  }
  return false;
}

ConnectionAnalysis& conn_of(TraceAnalysis& ta, const SessionTruth& s) {
  for (ConnectionAnalysis& a : ta.results) {
    if (a.key.ip_a == s.peer_ip || a.key.ip_b == s.peer_ip) return a;
  }
  std::fprintf(stderr, "no connection for a session\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest DIR\n");
    return 2;
  }
  agg::register_aggregate_sink();
  GenRequest req;
  req.workload = Workload::kTableTransfer;
  req.seed = 1;
  req.dir = argv[1];
  std::error_code ec;
  std::filesystem::create_directories(req.dir, ec);
  auto generated = generate(req);
  if (!generated.ok()) {
    std::fprintf(stderr, "generate: %s\n", generated.error().c_str());
    return 1;
  }
  const Truth& truth = generated.value();
  const CaptureTruth& capture = truth.captures.front();
  std::vector<const SessionTruth*> sessions;
  for (const SessionTruth& s : truth.sessions) sessions.push_back(&s);
  const auto find = [&](Mechanism m) -> const SessionTruth& {
    for (const SessionTruth& s : truth.sessions) {
      if (s.mech == m) return s;
    }
    std::fprintf(stderr, "no %s session\n", to_string(m));
    std::exit(1);
  };
  AnalyzerOptions opts;
  opts.jobs = kAnalysisJobs;
  auto analyzed = analyze_file(capture.path, opts);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "analyze: %s\n", analyzed.error().c_str());
    return 1;
  }
  const TraceAnalysis& good = analyzed.value();

  // check_analysis: the real output passes; each wrong one is rejected.
  expect(!any_fault(check_analysis(good, capture, sessions)),
         "check_analysis accepts the program's output");
  const auto rejects = [&](const char* what,
                           const std::function<void(TraceAnalysis&)>& break_it) {
    TraceAnalysis bad = good;
    break_it(bad);
    expect(any_fault(check_analysis(bad, capture, sessions)),
           std::string("check_analysis rejects ") + what);
  };
  rejects("a dropped connection", [](TraceAnalysis& ta) {
    ta.connections.pop_back();
    ta.results.pop_back();
  });
  rejects("a record count off by one",
          [](TraceAnalysis& ta) { ++ta.stats.records; });
  rejects("a byte count off by one",
          [](TraceAnalysis& ta) { --ta.stats.bytes_ingested; });
  rejects("an MCT prefix count off by one", [&](TraceAnalysis& ta) {
    ++conn_of(ta, find(Mechanism::kLoss)).mct.prefix_count;
  });
  rejects("an MCT update count off by one", [&](TraceAnalysis& ta) {
    --conn_of(ta, find(Mechanism::kWindow16k)).mct.update_count;
  });
  rejects("one extracted prefix changed", [&](TraceAnalysis& ta) {
    for (TimedBgpMessage& m : conn_of(ta, find(Mechanism::kTailDrop)).messages) {
      if (auto* u = std::get_if<BgpUpdate>(&m.msg.body); u && !u->nlri.empty()) {
        u->nlri.front().addr ^= 0x100;
        return;
      }
    }
  });
  rejects("one extracted UPDATE dropped", [&](TraceAnalysis& ta) {
    auto& msgs = conn_of(ta, find(Mechanism::kSlowCollector)).messages;
    for (auto it = msgs.begin(); it != msgs.end(); ++it) {
      if (it->msg.as_update() != nullptr) {
        msgs.erase(it);
        return;
      }
    }
  });
  rejects("a factor ratio above 1", [&](TraceAnalysis& ta) {
    conn_of(ta, find(Mechanism::kLoss)).report.factor_ratio[2] = 1.0001;
  });
  rejects("a group ratio below 0", [&](TraceAnalysis& ta) {
    conn_of(ta, find(Mechanism::kLoss)).report.group_ratio[0] = -0.01;
  });
  rejects("a factor delay longer than its transfer", [&](TraceAnalysis& ta) {
    ConnectionAnalysis& a = conn_of(ta, find(Mechanism::kTimer200));
    a.report.factor_delay[0] = a.transfer.length() + 1;
  });
  rejects("a pacing timer 2 ms off", [&](TraceAnalysis& ta) {
    conn_of(ta, find(Mechanism::kTimer200)).findings.timer.timer += 2000;
  });
  rejects("a pacing timer not found", [&](TraceAnalysis& ta) {
    conn_of(ta, find(Mechanism::kTimer200)).findings.timer.detected = false;
  });
  rejects("an unflagged probe bug", [&](TraceAnalysis& ta) {
    conn_of(ta, find(Mechanism::kProbeBug)).findings.zero_ack.detected = false;
  });

  // check_same_bytes: an archive differing in one byte.
  const ReportModel model = build_report_model(good);
  ReportRenderOptions ropts;
  ropts.run_id = stamp_run_id(0, 0);
  const std::string archive = render_report(model, ReportFormat::kAgg, ropts);
  std::string flipped = archive;
  flipped[flipped.size() / 2] ^= 0x01;
  expect(check_same_bytes("archive", archive, archive).empty(),
         "check_same_bytes accepts identical archives");
  expect(!check_same_bytes("archive", flipped, archive).empty(),
         "check_same_bytes rejects an archive differing in one byte");
  expect(!check_same_bytes("archive", archive.substr(1), archive).empty(),
         "check_same_bytes rejects an archive one byte short");

  // check_rollups: the capture as one run, rolled up along all four
  // dimensions.
  auto parsed = agg::parse_archive(std::span(
      reinterpret_cast<const std::uint8_t*>(archive.data()), archive.size()));
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.error().c_str());
    return 1;
  }
  const agg::Archive merged = parsed.value();
  const GroupCounts want = expected_week_groups(truth.sessions, 1);
  const auto rollups_of = [](const agg::Archive& a) {
    std::array<agg::RollupReport, 4> r;
    for (std::size_t d = 0; d < r.size(); ++d) {
      r[d] = agg::build_rollup(a, static_cast<agg::RollupBy>(d));
    }
    return r;
  };
  const auto rollups = rollups_of(merged);
  expect(check_rollups(merged, rollups, want).empty(),
         "check_rollups accepts the program's roll-ups");
  {
    agg::Archive fewer = merged;
    fewer.connections.pop_back();
    expect(!check_rollups(fewer, rollups, want).empty(),
           "check_rollups rejects a merged archive missing one row");
  }
  for (std::size_t d = 0; d < rollups.size(); ++d) {
    auto bad = rollups;
    ++bad[d].rows.front().transfer_us.count;
    expect(!check_rollups(merged, bad, want).empty(),
           std::string("check_rollups rejects a group count off by one, by ") +
               agg::to_string(bad[d].by));
  }
  {
    GroupCounts more = want;
    more[static_cast<std::size_t>(agg::RollupBy::kPeer)].begin()->second += 1;
    expect(!check_rollups(merged, rollups, more).empty(),
           "check_rollups rejects a generator count it does not meet");
  }

  // check_freshness: one sample per block.
  const std::vector<double> fresh(16, 12.5);
  expect(!any_fault(check_freshness(fresh, 16)),
         "check_freshness accepts one sample per block");
  std::vector<double> missing = fresh;
  missing[7] = std::numeric_limits<double>::quiet_NaN();
  expect(any_fault(check_freshness(missing, 16)),
         "check_freshness rejects a block without a sample");
  expect(any_fault(check_freshness(std::vector<double>(15, 12.5), 16)),
         "check_freshness rejects one sample too few");
  expect(any_fault(check_freshness(std::vector<double>(17, 12.5), 16)),
         "check_freshness rejects one sample too many");

  // The result line: an output a check rejects makes the run incorrect; an
  // error the program returned fails the operation only.
  {
    const auto line_has = [](const RunResult& r, const std::string& want) {
      return result_line(r).find(want) != std::string::npos;
    };
    RunResult run;
    for (const std::string& v : check_analysis(good, capture, sessions)) {
      run.record(v);
    }
    run.record_error("fleet: worker lost");
    expect(line_has(run, "{\"correct\": true, \"attempted\": " +
                             std::to_string(sessions.size() + 1) +
                             ", \"failed\": 1,"),
           "the result line reads correct: true when only an error failed");
    TraceAnalysis bad = good;
    bad.connections.pop_back();
    bad.results.pop_back();
    for (const std::string& v : check_analysis(bad, capture, sessions)) {
      run.record(v);
    }
    expect(line_has(run, "{\"correct\": false, \"attempted\": " +
                             std::to_string(2 * sessions.size() + 1) +
                             ", \"failed\": " + std::to_string(sessions.size() + 1) +
                             ","),
           "the result line reads correct: false after a dropped connection");
  }

  std::printf("%s: %d check(s) misjudged\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
