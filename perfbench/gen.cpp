// Workload generation: every input is simulated from the run's seed by the
// program's own simulator (src/sim) and table generator (bgp/table_gen),
// in one forked child process per run. The child writes the captures and a
// ground-truth file; the measuring parent only reads them back.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "bgp/table_gen.hpp"
#include "pcap/pcap_file.hpp"
#include "sim/world.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perfbench {

using namespace tdat;

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kTableTransfer: return "table-transfer";
    case Workload::kLiveTail: return "live-tail";
    case Workload::kCollectorWeek: return "collector-week";
  }
  return "?";
}

Result<Workload> parse_workload(const std::string& name) {
  for (const Workload w : {Workload::kTableTransfer, Workload::kLiveTail,
                           Workload::kCollectorWeek}) {
    if (name == to_string(w)) return w;
  }
  return Error{"unknown workload '" + name +
                               "' (table-transfer, live-tail, collector-week)"};
}

const char* to_string(Mechanism m) {
  switch (m) {
    case Mechanism::kLoss: return "upstream-loss";
    case Mechanism::kTailDrop: return "receiver-tail-drop";
    case Mechanism::kWindow16k: return "window-16k";
    case Mechanism::kTimer200: return "timer-200ms";
    case Mechanism::kSlowCollector: return "slow-collector";
    case Mechanism::kProbeBug: return "probe-bug";
    case Mechanism::kPlain: return "plain";
  }
  return "?";
}

std::string day_run_id(std::size_t day) {
  return "day" + std::to_string(day);
}

std::string stamp_run_id(std::size_t day, std::size_t stamp) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "day%zu-h%02zu", day, stamp * 2);
  return buf;
}

namespace {

// Session shapes, after the canned analyzer-test scenarios: each injects one
// known bottleneck T-DAT must explain.
SessionSpec spec_for(Mechanism m) {
  SessionSpec spec;
  switch (m) {
    case Mechanism::kLoss:
      spec.up_fwd.random_loss = 0.01;
      break;
    case Mechanism::kTailDrop:
      spec.down_fwd.queue_packets = 12;
      spec.down_fwd.rate_bytes_per_sec = 2'000'000;
      spec.sender_tcp.initial_cwnd_segments = 32;
      break;
    case Mechanism::kWindow16k:
      spec.receiver_tcp.recv_buf_capacity = 16 * 1024;
      spec.up_fwd.propagation_delay = 25 * kMicrosPerMilli;
      spec.up_rev.propagation_delay = 25 * kMicrosPerMilli;
      break;
    case Mechanism::kTimer200:
      spec.bgp.timer_driven = true;
      spec.bgp.timer_interval = kTimerInterval;
      spec.bgp.msgs_per_tick = kTimerMsgsPerTick;
      break;
    case Mechanism::kSlowCollector:
      spec.receiver_tcp.recv_buf_capacity = 8 * 1024;
      spec.collector.read_interval = 300 * kMicrosPerMilli;
      spec.collector.read_chunk = 8 * 1024;
      break;
    case Mechanism::kProbeBug:
      spec.receiver_tcp.recv_buf_capacity = 4 * 1024;
      spec.collector.read_interval = 300 * kMicrosPerMilli;
      spec.collector.read_chunk = 2 * 1024;
      spec.sender_tcp.zero_window_probe_bug = true;
      break;
    case Mechanism::kPlain:
      break;
  }
  return spec;
}

// A generated table plus the facts the checks compare against, computed
// here from the generator's own output.
struct Table {
  std::vector<std::vector<std::uint8_t>> wire;
  std::uint64_t prefixes = 0;
  std::uint64_t digest = 0;
};

Table make_table(std::size_t prefix_count, std::uint64_t seed) {
  Rng rng(seed);
  TableGenConfig tg;
  tg.prefix_count = prefix_count;
  const std::vector<BgpUpdate> updates = generate_table(tg, rng);
  Table t;
  std::set<std::pair<std::uint32_t, std::uint8_t>> distinct;
  for (const BgpUpdate& u : updates) {
    for (const Prefix& p : u.nlri) distinct.emplace(p.addr, p.length);
  }
  t.prefixes = distinct.size();
  Fnv64 fnv;
  for (const BgpUpdate& u : updates) digest_update(fnv, u);
  t.digest = fnv.h;
  t.wire = serialize_updates(updates);
  return t;
}

// Index of the first Ethernet/IPv4 frame in `trace` from or to `ip`, read
// from the frame headers by the benchmark itself; the record count if none.
std::uint64_t first_record_of(const PcapFile& trace, std::uint32_t ip) {
  const auto be32 = [](const std::uint8_t* p) {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | p[3];
  };
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const std::vector<std::uint8_t>& f = trace.records[i].data;
    if (f.size() < 34 || f[12] != 0x08 || f[13] != 0x00) continue;
    if (be32(f.data() + 26) == ip || be32(f.data() + 30) == ip) return i;
  }
  return trace.records.size();
}

// Simulation bookkeeping shared by the three generators.
class Generator {
 public:
  explicit Generator(const GenRequest& req) : req_(req) {}

  std::size_t add(SimWorld& world, SessionSpec spec, Mechanism mech,
                  std::size_t prefixes, std::uint64_t table_seed,
                  Micros start) {
    Table t = make_table(prefixes, table_seed);
    SessionTruth s;
    s.capture = static_cast<std::uint32_t>(truth_.captures.size());
    s.mech = mech;
    s.peer_ip = spec.sender_ip;
    s.collector_ip = spec.receiver_ip;
    s.peer_as = spec.bgp.my_as;
    s.updates = t.wire.size();
    s.prefixes = t.prefixes;
    s.update_digest = t.digest;
    const std::size_t id = world.add_session(spec, std::move(t.wire));
    world.start_session(id, start);
    pending_.push_back({id, truth_.sessions.size()});
    truth_.sessions.push_back(s);
    return id;
  }

  // Runs the world to `horizon` and writes its capture as file `name`.
  Result<Unit> finish(SimWorld& world, Micros horizon,
                      const std::string& name) {
    TDAT_TRACE_SPAN("bench.sim", "bench");
    const std::uint64_t ev0 = metrics().counter("sim.events").value();
    const Clock::time_point t0 = Clock::now();
    world.run_until(horizon);
    truth_.sim_run_s += seconds_since(t0);
    truth_.sim_events += metrics().counter("sim.events").value() - ev0;
    const PcapFile trace = world.take_trace();
    for (const auto& [id, idx] : pending_) {
      SessionTruth& s = truth_.sessions[idx];
      s.finished = world.sender(id).finished_sending();
      s.first_record = first_record_of(trace, s.peer_ip);
      // The sniffer sits in front of the collector, so every byte of the
      // table passed it no later than the collector read the last UPDATE.
      Micros done = std::numeric_limits<Micros>::max();
      const auto& got = world.receiver(id).archive();
      for (auto it = got.rbegin(); it != got.rend(); ++it) {
        if (it->msg.as_update() != nullptr) {
          done = it->ts;
          break;
        }
      }
      s.table_records = static_cast<std::uint64_t>(
          std::upper_bound(trace.records.begin(), trace.records.end(), done,
                           [](Micros t, const PcapRecord& r) { return t < r.ts; }) -
          trace.records.begin());
    }
    pending_.clear();
    CaptureTruth cap;
    cap.path = req_.dir + "/" + name;
    cap.records = trace.records.size();
    {
      TDAT_TRACE_SPAN("bench.pcap_write", "bench");
      const Clock::time_point w0 = Clock::now();
      if (!write_pcap_file(cap.path, trace)) {
        return Error{"cannot write " + cap.path};
      }
      truth_.pcap_write_s += seconds_since(w0);
    }
    struct stat st {};
    if (::stat(cap.path.c_str(), &st) != 0) {
      return Error{"cannot stat " + cap.path};
    }
    cap.bytes = static_cast<std::uint64_t>(st.st_size);
    truth_.captures.push_back(cap);
    return Unit{};
  }

  Truth& truth() { return truth_; }
  const GenRequest& req() const { return req_; }

 private:
  const GenRequest& req_;
  Truth truth_;
  std::vector<std::pair<std::size_t, std::size_t>> pending_;
};

std::uint32_t ip4(unsigned a, unsigned b, unsigned c, unsigned d) {
  return (a << 24) | (b << 16) | (c << 8) | d;
}

// table-transfer: a dozen concurrent full-table transfers, two per paper
// mechanism, each of 100k-110k prefixes.
Result<Unit> gen_table_transfer(Generator& g) {
  constexpr std::size_t kSessions = 2 * kPaperMechanisms;
  Rng rng(g.req().seed * 0x9e3779b97f4a7c15ull + 1);
  SimWorld world(g.req().seed);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto mech = static_cast<Mechanism>(i % kPaperMechanisms);
    SessionSpec spec = spec_for(mech);
    spec.sender_ip = ip4(10, 0, 1, static_cast<unsigned>(i + 1));
    spec.bgp.my_as = static_cast<std::uint16_t>(64512 + i);
    const auto prefixes = static_cast<std::size_t>(rng.uniform(100'000, 110'000));
    const auto table_seed = static_cast<std::uint64_t>(rng.uniform(1, 1 << 30));
    const Micros start = static_cast<Micros>(i) * 20 * kMicrosPerMilli +
                         rng.uniform(0, 10 * kMicrosPerMilli);
    g.add(world, spec, mech, prefixes, table_seed, start);
  }
  return g.finish(world, 900 * kMicrosPerSec, "table-transfer.pcap");
}

// live-tail: full-table transfers of the same kinds, started one after
// another, then idling on keepalives; enough of them that the capture
// outlasts the run's append schedule.
Result<Unit> gen_live_tail(Generator& g) {
  // A 100k-prefix transfer adds about 1.8 MB to the capture; counting 2 MB
  // plus two spare sessions keeps the capture longer than the schedule.
  constexpr std::uint64_t kBytesPerSession = 2'000'000;
  constexpr Micros kStartGap = 20 * kMicrosPerSec;
  const std::size_t sessions = static_cast<std::size_t>(
      g.req().min_bytes / kBytesPerSession + 2);
  Rng rng(g.req().seed * 0x9e3779b97f4a7c15ull + 2);
  SimWorld world(g.req().seed);
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto mech = static_cast<Mechanism>(i % kPaperMechanisms);
    SessionSpec spec = spec_for(mech);
    spec.sender_ip = ip4(10, 0, 2, static_cast<unsigned>(i + 1));
    spec.bgp.my_as = static_cast<std::uint16_t>(64512 + i);
    const auto table_seed = static_cast<std::uint64_t>(rng.uniform(1, 1 << 30));
    g.add(world, spec, mech, 100'000, table_seed,
          static_cast<Micros>(i) * kStartGap);
  }
  const Micros horizon =
      static_cast<Micros>(sessions) * kStartGap + 120 * kMicrosPerSec;
  return g.finish(world, horizon, "live-tail.pcap");
}

// collector-week: one capture per day of the same peers — hundreds of them,
// spread over many ASes and four collectors — each sending a small table
// and then keepalives only, so minimum-size segments dominate.
inline constexpr std::size_t kWeekPeers = 160;
inline constexpr std::size_t kWeekCollectors = 4;
inline constexpr std::size_t kWeekAses = 48;

Result<Unit> gen_collector_week(Generator& g) {
  Rng peers_rng(g.req().seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<std::uint16_t> peer_as(kWeekPeers);
  for (std::size_t p = 0; p < kWeekPeers; ++p) {
    peer_as[p] = static_cast<std::uint16_t>(
        64512 + peers_rng.uniform(0, kWeekAses - 1));
  }
  for (std::size_t day = 0; day < kWeekDays; ++day) {
    Rng rng = peers_rng.fork();
    SimWorld world(g.req().seed * 131 + day);
    for (std::size_t p = 0; p < kWeekPeers; ++p) {
      SessionSpec spec = spec_for(Mechanism::kPlain);
      spec.sender_ip = ip4(10, 1, static_cast<unsigned>(p / 200),
                           static_cast<unsigned>(p % 200 + 1));
      spec.receiver_ip =
          ip4(10, 9, 9, static_cast<unsigned>(p % kWeekCollectors + 1));
      spec.bgp.my_as = peer_as[p];
      spec.bgp.keepalive_interval = 10 * kMicrosPerSec;
      spec.collector.keepalive_interval = 10 * kMicrosPerSec;
      spec.up_fwd.propagation_delay = from_millis(rng.uniform(1, 30));
      spec.up_rev.propagation_delay = spec.up_fwd.propagation_delay;
      const auto prefixes = static_cast<std::size_t>(rng.uniform(200, 600));
      const auto table_seed =
          static_cast<std::uint64_t>(rng.uniform(1, 1 << 30));
      g.add(world, spec, Mechanism::kPlain, prefixes, table_seed,
            rng.uniform(0, 30 * kMicrosPerSec));
    }
    auto done = g.finish(world, 300 * kMicrosPerSec,
                         "collector-week-" + day_run_id(day) + ".pcap");
    if (!done.ok()) return done;
  }
  return Unit{};
}

std::string truth_path(const std::string& dir) { return dir + "/truth.txt"; }

bool write_truth(const std::string& path, const Truth& t) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "sim %.9f %" PRIu64 " %.9f\n", t.sim_run_s, t.sim_events,
               t.pcap_write_s);
  for (const CaptureTruth& c : t.captures) {
    std::fprintf(f, "capture %" PRIu64 " %" PRIu64 " %s\n", c.records, c.bytes,
                 c.path.c_str());
  }
  for (const SessionTruth& s : t.sessions) {
    std::fprintf(f,
                 "session %u %u %u %u %u %d %" PRIu64 " %" PRIu64 " %" PRIu64
                 " %" PRIu64 " %" PRIu64 "\n",
                 s.capture, static_cast<unsigned>(s.mech), s.peer_ip,
                 s.collector_ip, s.peer_as, s.finished ? 1 : 0, s.updates,
                 s.prefixes, s.update_digest, s.first_record, s.table_records);
  }
  return std::fclose(f) == 0;
}

Result<Truth> read_truth(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Error{"generator left no " + path};
  Truth t;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "sim") {
      ls >> t.sim_run_s >> t.sim_events >> t.pcap_write_s;
    } else if (kind == "capture") {
      CaptureTruth c;
      ls >> c.records >> c.bytes >> c.path;
      t.captures.push_back(c);
    } else if (kind == "session") {
      SessionTruth s;
      unsigned mech = 0;
      int finished = 0;
      ls >> s.capture >> mech >> s.peer_ip >> s.collector_ip >> s.peer_as >>
          finished >> s.updates >> s.prefixes >> s.update_digest >>
          s.first_record >> s.table_records;
      s.mech = static_cast<Mechanism>(mech);
      s.finished = finished != 0;
      t.sessions.push_back(s);
    }
    if (!ls) return Error{"malformed truth line: " + line};
  }
  if (t.captures.empty()) return Error{"truth names no capture"};
  return t;
}

int generator_main(const GenRequest& req) {
  if (!req.trace_path.empty()) trace_start();
  Generator g(req);
  Result<Unit> done = Unit{};
  switch (req.workload) {
    case Workload::kTableTransfer: done = gen_table_transfer(g); break;
    case Workload::kLiveTail: done = gen_live_tail(g); break;
    case Workload::kCollectorWeek: done = gen_collector_week(g); break;
  }
  if (!req.trace_path.empty() && !trace_stop(req.trace_path)) return 1;
  if (!done.ok()) {
    std::fprintf(stderr, "generator: %s\n", done.error().c_str());
    return 1;
  }
  return write_truth(truth_path(req.dir), g.truth()) ? 0 : 1;
}

}  // namespace

Result<Truth> generate(const GenRequest& req) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return Error{"fork failed"};
  if (pid == 0) {
    int rc = 1;
    try {
      rc = generator_main(req);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "generator: %s\n", e.what());
    }
    std::fflush(nullptr);
    ::_exit(rc);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return Error{"waitpid failed"};
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Error{"generator process failed"};
  }
  return read_truth(truth_path(req.dir));
}

Result<Truth> generate_inputs(const RunConfig& cfg, MetricSet& layers,
                              std::uint64_t min_bytes) {
  GenRequest req;
  req.workload = cfg.workload;
  req.seed = cfg.seed;
  req.dir = cfg.workdir;
  req.min_bytes = min_bytes;
  if (cfg.trace) req.trace_path = cfg.workdir + "/trace-gen.json";
  auto truth = generate(req);
  if (!truth.ok()) return truth;
  const Truth& t = truth.value();
  layers.set("sim.run_s", t.sim_run_s, "s");
  layers.set("sim.events_per_s",
             static_cast<double>(t.sim_events) / t.sim_run_s, "1/s");
  layers.set("pcap.write_s", t.pcap_write_s, "s");
  return truth;
}

}  // namespace perfbench
