// Shared declarations of the tdat benchmark: the generated workloads' ground
// truth, the correctness checks, and the measurement helpers the three
// workloads use. See README.md for what each workload is and why.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "agg/archive.hpp"
#include "agg/rollup.hpp"
#include "bgp/message.hpp"
#include "core/analyzer.hpp"
#include "fleet/coordinator.hpp"
#include "util/result.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads and their inputs -------------------------------------------

enum class Workload : std::uint8_t { kTableTransfer, kLiveTail, kCollectorWeek };

[[nodiscard]] const char* to_string(Workload w);
[[nodiscard]] tdat::Result<Workload> parse_workload(const std::string& name);

// The paper's slow-transfer mechanisms, one per simulated session (§II,
// §IV-B). kPlain is an unimpaired session (collector-week's peers).
enum class Mechanism : std::uint8_t {
  kLoss,           // upstream random loss
  kTailDrop,       // receiver-side interface tail-drop bursts
  kWindow16k,      // 16 KB advertised window on a long path
  kTimer200,       // 200 ms BGP pacing timer
  kSlowCollector,  // collector process reads slower than data arrives
  kProbeBug,       // zero-window probe bug behind a slow collector
  kPlain,
};
inline constexpr std::size_t kPaperMechanisms = 6;  // kLoss .. kProbeBug

[[nodiscard]] const char* to_string(Mechanism m);

// The pacing timer every kTimer200 session runs, and its batch size.
inline constexpr tdat::Micros kTimerInterval = 200 * tdat::kMicrosPerMilli;
inline constexpr std::size_t kTimerMsgsPerTick = 60;

// What the generator built for one simulated session.
struct SessionTruth {
  std::uint32_t capture = 0;  // index into Truth::captures
  Mechanism mech = Mechanism::kPlain;
  std::uint32_t peer_ip = 0;       // the sending router
  std::uint32_t collector_ip = 0;  // the receiving collector
  std::uint32_t peer_as = 0;
  bool finished = false;  // the simulated sender sent its whole table
  std::uint64_t updates = 0;   // UPDATE messages in the table
  std::uint64_t prefixes = 0;  // distinct announced prefixes
  // digest_update over the table's UPDATE messages, in sending order.
  std::uint64_t update_digest = 0;
  // For a leading part of the capture: the session is in it when it holds
  // more than `first_record` records, and its whole table is in it (when
  // finished) when it holds at least `table_records` records.
  std::uint64_t first_record = 0;
  std::uint64_t table_records = 0;
};

// One capture file as the generator wrote it.
struct CaptureTruth {
  std::string path;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  // file size, global header included
};

// Everything one generator process produced, plus what it measured of
// itself (the sim and pcap-writer layers run only there).
struct Truth {
  std::vector<CaptureTruth> captures;
  std::vector<SessionTruth> sessions;
  double sim_run_s = 0;     // wall inside SimWorld::run_until
  std::uint64_t sim_events = 0;
  double pcap_write_s = 0;  // wall inside write_pcap_file
};

struct GenRequest {
  Workload workload = Workload::kTableTransfer;
  std::uint64_t seed = 1;
  std::string dir;         // where captures and truth.txt go
  std::string trace_path;  // "" = untraced; else the generator's trace file
  std::uint64_t min_bytes = 0;  // live-tail: capture at least this long
};

// Runs the generator for `req` in a forked child process (so its memory
// never counts toward the measured process's high-water mark) and reads
// back its ground truth.
[[nodiscard]] tdat::Result<Truth> generate(const GenRequest& req);

// The collector-week layout: days of captures, re-stamped into hourly runs.
inline constexpr std::size_t kWeekDays = 7;
inline constexpr std::size_t kStampsPerDay = 12;
[[nodiscard]] std::string day_run_id(std::size_t day);
[[nodiscard]] std::string stamp_run_id(std::size_t day, std::size_t stamp);

// ---- correctness checks ---------------------------------------------------
//
// Each check compares a program output with what the generator built, or
// with a property every T-DAT result must have, and returns one reason per
// failed operation ("" when it passed). They never call back into the
// program to compute the expected value.

// FNV-1a 64 over consecutive byte strings.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void add_value(T v) {
    add(reinterpret_cast<const std::uint8_t*>(&v), sizeof(v));
  }
};

// Folds every field of one UPDATE into `fnv`. The generator applies it to
// the table it built, the checks to the messages T-DAT extracted.
void digest_update(Fnv64& fnv, const tdat::BgpUpdate& u);

// One analyzed capture against its sessions: one verdict per session, in
// `sessions` order. Capture-level failures (records or bytes ingested, the
// connection count) fail every session of the capture.
[[nodiscard]] std::vector<std::string> check_analysis(
    const tdat::TraceAnalysis& analysis, const CaptureTruth& capture,
    const std::vector<const SessionTruth*>& sessions);

// Byte-for-byte equality of two renderings (archives, snapshots).
[[nodiscard]] std::string check_same_bytes(const char* what,
                                           const std::string& got,
                                           const std::string& want);

// Expected group sizes per roll-up dimension (label -> connection count),
// indexed by agg::RollupBy.
using GroupCounts = std::array<std::map<std::string, std::uint64_t>, 4>;

[[nodiscard]] GroupCounts expected_week_groups(
    const std::vector<SessionTruth>& sessions, std::size_t stamps_per_day);

// The merged week: every dimension's sketch-derived counts sum to the row
// count and match the generator's per-group session counts.
[[nodiscard]] std::string check_rollups(
    const tdat::agg::Archive& merged,
    const std::array<tdat::agg::RollupReport, 4>& rollups,
    const GroupCounts& want);

// live-tail: every appended block has exactly one freshness sample.
[[nodiscard]] std::vector<std::string> check_freshness(
    const std::vector<double>& freshness_ms, std::size_t blocks);

[[nodiscard]] std::string ipv4_string(std::uint32_t ip);

// ---- measurement helpers --------------------------------------------------

// Order statistics of a sample, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] double median(std::vector<double> xs);

// Resident high-water mark of this process, MB (getrusage ru_maxrss; the
// generator child and fleet workers are other processes).
[[nodiscard]] double peak_rss_mb();

// Named metric values in output order.
struct MetricSet {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;
};

// Outcome of one workload run.
struct RunResult {
  // False once a check rejects an output the program produced.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for stderr
  MetricSet end_to_end;
  MetricSet per_layer;
  // Measured passes over the workload's input; span sums in the trace are
  // divided by it so per-layer seconds read per pass.
  double trace_norm = 1;

  // One attempted operation whose output the checks judged: `verdict` is ""
  // when every check held, else the operation failed and its output was
  // wrong, which makes the run incorrect.
  void record(const std::string& verdict);
  // One attempted operation that ended in an error the program returned:
  // it failed, but left no output to be wrong.
  void record_error(const std::string& why);
};

// The line perfbench prints for `res`: correct, attempted, failed, both
// metric sets, the trace normalizer and the first failure reasons.
[[nodiscard]] std::string result_line(const RunResult& res);

struct RunConfig {
  Workload workload = Workload::kTableTransfer;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space for this run's files
  Clock::time_point process_start;
};

// The run's inputs: generate() for cfg's workload and seed into cfg.workdir
// (the generator traced when the run is), with the generator's own sim.* and
// pcap.write_s figures recorded in `layers`. `min_bytes` is live-tail's.
[[nodiscard]] tdat::Result<Truth> generate_inputs(const RunConfig& cfg,
                                                  MetricSet& layers,
                                                  std::uint64_t min_bytes = 0);

[[nodiscard]] RunResult run_table_transfer(const RunConfig& cfg);
[[nodiscard]] RunResult run_live_tail(const RunConfig& cfg);
[[nodiscard]] RunResult run_collector_week(const RunConfig& cfg);

// The statistics of the end-to-end metrics. On a shared runner, other
// tenants' load slows memory-bound analysis by up to half for minutes at a
// time, so a run's median lands in the fast or the slow state by chance
// (README.md). The slow end of a run's sample is there in every run and
// holds steady: analyze_mb_per_s is the rate three operations in four
// reach (their 25th percentile), and freshness is the 90th percentile.
inline constexpr double kRateQuantile = 0.25;
inline constexpr double kTailQuantile = 0.9;

// The analysis job count of every in-process run and of the live engine.
// Single-threaded: on a shared 4-vCPU runner, analysis at 2-4 jobs moved
// 15-30% between back-to-back runs of one seed (README.md).
inline constexpr std::size_t kAnalysisJobs = 1;

// `tdat fleet` options of every fleet run: two forked workers, leaving one
// core to the coordinator and one spare, and four shards per worker, so the
// queue can balance a dozen unequal connections.
[[nodiscard]] tdat::fleet::FleetOptions fleet_options(const std::string& run_id);

// fleet.* per-layer figures over a run's run_fleet calls, from FleetStats
// and the wall time of each call.
struct FleetLayer {
  std::vector<double> mb_per_s, plan_s, busy_s, idle_s, overhead_s;
  // One run_fleet call over a capture of `bytes` that took `wall_s`.
  void add(const tdat::fleet::FleetStats& st, std::uint64_t bytes,
           double wall_s);
  void report(MetricSet& out) const;
};

// Per-layer probes over one capture that the benchmark times from outside
// the program's public functions (traced runs only): the capture streamed
// and batch-decoded alone, demux alone, analyze_connection per connection,
// the report render, and the fleet's shard plan.
void probe_layers(const std::string& capture_path, const std::string& run_id,
                  MetricSet& out);

}  // namespace perfbench
