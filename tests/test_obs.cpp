// The telemetry subsystem (src/obs): stable category names, the
// ThreadBuf flight-recorder ring and stage clock, the metrics registry's
// Prometheus/JSON expositions, the golden SimStats::to_json schema (and
// the committed BENCH_throughput.json against it), Chrome trace-event
// well-formedness, det-2w cycle attribution, byte equivalence with
// tracing armed, and the zero-steady-state-allocation invariant with the
// hooks compiled in.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "compiler/session.h"
#include "dataplane/network.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/burst.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "topo/gen.h"

namespace snap {
namespace {

using namespace snap::dsl;

// ------------------------------------------------------------ fixtures

struct Compiled {
  Topology topo;
  TrafficMatrix tm;
  EventResult ev;
  sim::Workload wl;
};

// One compiled policy + workload shared by the engine-driving tests
// (compiling once keeps the suite fast; every test runs its own engine).
Compiled& compiled(std::size_t packets = 4000) {
  static Compiled* c = [] {
    auto* out = new Compiled;
    out->topo = make_figure2_campus();
    out->tm = gravity_traffic(out->topo, 10.0, 3);
    auto subnets = apps::default_subnets(out->topo.ports());
    PolPtr policy = apps::heavy_hitter("obs-hh", 3) >>
                    (apps::stateful_firewall("obs-fw", "10.0.6.0/24") >>
                     apps::assign_egress(subnets));
    static Session session(out->topo, out->tm);
    out->ev = session.full_compile(policy);
    const sim::Scenario* mixed = sim::find_scenario("mixed");
    out->wl = sim::WorkloadGen(out->topo, out->tm, 21).generate(*mixed, 4000);
    return out;
  }();
  (void)packets;
  return *c;
}

bool has_key(const std::string& json, const std::string& key) {
  return json.find("\"" + key + "\":") != std::string::npos;
}

// ------------------------------------------------------- category names

TEST(ObsCat, NamesAreStableAndUnique) {
  std::set<std::string> seen;
  for (std::size_t c = 0; c < obs::kCatCount; ++c) {
    std::string n = obs::cat_name(static_cast<obs::Cat>(c));
    EXPECT_FALSE(n.empty()) << "cat " << c;
    EXPECT_TRUE(seen.insert(n).second) << "duplicate cat name " << n;
    // These are JSON keys and Prometheus-adjacent identifiers.
    for (char ch : n) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_' ||
                  (ch >= '0' && ch <= '9'))
          << "cat name '" << n << "' has non-identifier char";
    }
  }
  // Spot-pin the names the golden schema depends on.
  EXPECT_STREQ(obs::cat_name(obs::Cat::kExec), "exec");
  EXPECT_STREQ(obs::cat_name(obs::Cat::kGateWait), "gate_wait");
  EXPECT_STREQ(obs::cat_name(obs::Cat::kIdle), "idle");
  EXPECT_STREQ(obs::cat_name(obs::Cat::kPktSegment), "pkt_segment");
}

// ------------------------------------------------------------ ThreadBuf

TEST(ObsThreadBuf, FlightRecorderKeepsNewestAndCountsDrops) {
  obs::ThreadBuf buf("t", 7, /*capacity=*/8);
  buf.arm(/*trace_on=*/true, /*acct_on=*/false);
  for (std::uint64_t i = 0; i < 20; ++i) {
    buf.push({i, i + 1, i, 0, 0, 0, obs::Cat::kExec, 0});
  }
  EXPECT_EQ(buf.recorded(), 20u);
  EXPECT_EQ(buf.dropped(), 12u);
  std::vector<obs::SpanRec> recs = buf.drain();
  ASSERT_EQ(recs.size(), 8u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].t0, 12 + i) << "oldest-surviving-first order";
  }
}

TEST(ObsThreadBuf, StageClockPartitionsWall) {
#if !SNAP_OBS
  GTEST_SKIP() << "telemetry hooks compiled out (SNAP_OBS=0)";
#endif
  obs::ThreadBuf buf("t", 0);
  buf.arm(false, /*acct_on=*/true);
  obs::BindThread bind(&buf);
  // Burn a little attributable time in two buckets.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 200000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  obs::stage_mark(obs::Cat::kExec);
  for (int i = 0; i < 200000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  obs::stage_mark(obs::Cat::kIdle);
  buf.finish();
  const auto& cat = buf.cat_ns();
  std::uint64_t attributed = 0;
  for (std::uint64_t ns : cat) attributed += ns;
  EXPECT_GT(cat[static_cast<std::size_t>(obs::Cat::kExec)], 0u);
  EXPECT_GT(cat[static_cast<std::size_t>(obs::Cat::kIdle)], 0u);
  // Marks partition [arm, last mark]; only the tail after the final mark
  // is unattributed, so the sum never exceeds the wall clock.
  EXPECT_LE(attributed, buf.wall_ns());
}

// -------------------------------------------------------------- registry

TEST(ObsRegistry, PrometheusAndJsonExposition) {
  obs::Registry reg;
  reg.set_counter("t_packets_total", 12, "packets");
  reg.set_gauge("t_occupancy{ring=\"w0\"}", 3, "ring occupancy");
  reg.set_gauge("t_occupancy{ring=\"w1\"}", 5, "ring occupancy");
  reg.set_histogram("t_latency_us", {1, 10, 100}, {4, 2, 1, 1}, "latency");

  std::string prom = reg.prometheus();
  EXPECT_NE(prom.find("# HELP t_packets_total packets\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE t_packets_total counter\n"), std::string::npos);
  EXPECT_NE(prom.find("t_packets_total 12\n"), std::string::npos);
  // Labelled series share one HELP/TYPE header for the family.
  std::size_t first = prom.find("# TYPE t_occupancy gauge");
  EXPECT_NE(first, std::string::npos);
  EXPECT_EQ(prom.find("# TYPE t_occupancy gauge", first + 1),
            std::string::npos);
  EXPECT_NE(prom.find("t_occupancy{ring=\"w0\"} 3\n"), std::string::npos);
  EXPECT_NE(prom.find("t_occupancy{ring=\"w1\"} 5\n"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(prom.find("t_latency_us_bucket{le=\"1\"} 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("t_latency_us_bucket{le=\"10\"} 6\n"),
            std::string::npos);
  EXPECT_NE(prom.find("t_latency_us_bucket{le=\"100\"} 7\n"),
            std::string::npos);
  EXPECT_NE(prom.find("t_latency_us_bucket{le=\"+Inf\"} 8\n"),
            std::string::npos);
  EXPECT_NE(prom.find("t_latency_us_count 8\n"), std::string::npos);

  std::string js = reg.json();
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  EXPECT_TRUE(has_key(js, "t_packets_total"));

  reg.clear();
  EXPECT_EQ(reg.prometheus(), "");
}

// ------------------------------------------------- golden SimStats schema

// Every top-level key SimStats::to_json emits; bench JSON consumers
// (tools/ci.sh, the trajectory collector) and this test pin the set.
const char* const kStatsKeys[] = {
    "packets",         "deliveries",       "forwards",
    "instructions",    "hops",             "conflict_hits",
    "conflict_misses", "seconds",          "pps",
    "workers",         "burst",            "steady_allocs",
    "deterministic",   "per_switch_instructions",
    "per_switch_events", "hop_histogram",  "latency_us_log2_histogram",
    "epoch_slot_hwm",  "epoch_stall_slot", "epoch_stall_mask",
    "epoch_stall_migration", "trace_records", "trace_dropped",
    "ring_hwm",        "comp_ring_hwm",    "cycles",
    "epochs",          "events",          "shard_mode",
    "shard_cross_edges", "shard_total_edges", "shard_drift",
    "lookahead_dispatches", "rtc_bursts",
};

TEST(ObsGoldenSchema, SimStatsToJson) {
  Compiled& c = compiled();
  sim::EngineOptions opts;
  opts.workers = 2;
  opts.deterministic = true;
  opts.profile = true;
  sim::TrafficEngine engine(c.ev.delta, opts);
  auto out = engine.run(c.wl);
  EXPECT_FALSE(out.empty());
  std::string js = engine.stats().to_json();
  for (const char* key : kStatsKeys) {
    EXPECT_TRUE(has_key(js, key)) << "SimStats::to_json lost key " << key;
  }
  // Cycle rows: one per engine thread, each wall-partitioned into the
  // engine-stage categories keyed by the stable cat names.
  ASSERT_EQ(engine.stats().cycles.size(), 3u) << "2 workers + scheduler";
  for (std::size_t ci = 0; ci < obs::kAcctCatCount; ++ci) {
    std::string key =
        std::string(obs::cat_name(static_cast<obs::Cat>(ci))) + "_ns";
    EXPECT_TRUE(has_key(js, key)) << "cycle table lost key " << key;
  }
  EXPECT_NE(js.find("\"name\":\"worker0\""), std::string::npos);
  EXPECT_NE(js.find("\"name\":\"scheduler\""), std::string::npos);
}

TEST(ObsGoldenSchema, CommittedBenchTrajectory) {
  // BENCH_throughput.json at the repo root is the perf trajectory later
  // PRs regress against; its schema must carry the telemetry keys.
  std::ifstream in(std::string(SNAP_REPO_ROOT) + "/BENCH_throughput.json");
  ASSERT_TRUE(in.good()) << "BENCH_throughput.json missing at repo root";
  std::stringstream ss;
  ss << in.rdbuf();
  std::string js = ss.str();
  for (const char* key :
       {"packets", "workers", "cores", "burst", "repeat", "pps", "serial",
        "serial_scalar", "serial_profiled", "deterministic",
        "deterministic_confined_w1", "deterministic_traced",
        "deterministic_soundness", "free_running", "overhead",
        "disarmed_over_serial", "profiled_over_serial",
        "traced_over_deterministic", "dispatch_share", "allocs",
        "deliveries", "state_entries", "corpus_policies_checked",
        "equivalent", "event_latency", "stats_last_run"}) {
    EXPECT_TRUE(has_key(js, key))
        << "BENCH_throughput.json lost key " << key;
  }
  for (const char* key : kStatsKeys) {
    EXPECT_TRUE(has_key(js, key))
        << "BENCH_throughput.json stats block lost key " << key;
  }
}

// --------------------------------------------------- trace export checks

// Minimal line-oriented scan of write_chrome_trace output (the writer
// emits one event object per line).
struct ParsedEv {
  char ph = '?';
  int tid = -1;
  double ts = -1;
};

std::vector<ParsedEv> parse_events(const std::string& json) {
  std::vector<ParsedEv> out;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    std::size_t ph = line.find("\"ph\":\"");
    if (ph == std::string::npos) continue;
    ParsedEv e;
    e.ph = line[ph + 6];
    std::size_t tid = line.find("\"tid\":");
    if (tid != std::string::npos) e.tid = std::atoi(line.c_str() + tid + 6);
    std::size_t ts = line.find("\"ts\":");
    if (ts != std::string::npos) e.ts = std::atof(line.c_str() + ts + 5);
    out.push_back(e);
  }
  return out;
}

TEST(ObsTrace, ChromeExportIsWellFormed) {
#if !SNAP_OBS
  GTEST_SKIP() << "telemetry hooks compiled out (SNAP_OBS=0)";
#endif
  Compiled& c = compiled();
  sim::EngineOptions opts;
  opts.workers = 2;
  opts.deterministic = true;
  opts.trace_sample = 1;  // trace every packet: worst case for the writer
  sim::TrafficEngine engine(c.ev.delta, opts);
  auto out = engine.run(c.wl);
  EXPECT_FALSE(out.empty());
  EXPECT_GT(engine.stats().trace_records, 0u);
  const obs::TraceData& data = engine.trace();
  ASSERT_FALSE(data.empty());
  ASSERT_EQ(data.threads.size(), 3u);  // 2 workers + scheduler

  std::ostringstream os;
  obs::write_chrome_trace(data, os);
  std::string js = os.str();
  ASSERT_NE(js.find("{\"traceEvents\":["), std::string::npos);

  std::vector<ParsedEv> evs = parse_events(js);
  ASSERT_GT(evs.size(), 3u);
  // Metadata first, then: per-tid monotonic timestamps and matched B/E
  // nesting (what Perfetto requires to render the track).
  std::map<int, double> prev;
  std::map<int, int> depth;
  double last_ts = 0;
  std::size_t spans = 0, instants = 0;
  for (const ParsedEv& e : evs) {
    if (e.ph == 'M') continue;
    ASSERT_GE(e.ts, 0.0);
    EXPECT_GE(e.ts, last_ts) << "merged stream must be monotonic";
    last_ts = e.ts;
    auto it = prev.find(e.tid);
    if (it != prev.end()) EXPECT_GE(e.ts, it->second) << "tid " << e.tid;
    prev[e.tid] = e.ts;
    if (e.ph == 'B') {
      ++depth[e.tid];
      ++spans;
    } else if (e.ph == 'E') {
      EXPECT_GT(depth[e.tid], 0) << "E without matching B on tid " << e.tid;
      --depth[e.tid];
    } else {
      ASSERT_EQ(e.ph, 'i');
      ++instants;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
  }
  EXPECT_GT(spans, 0u) << "no pkt_segment spans recorded";
  EXPECT_GT(instants, 0u) << "no dispatch/complete instants recorded";
}

TEST(ObsTrace, ByteEquivalentWithTracingArmed) {
  Compiled& c = compiled();
  Network serial(c.ev.delta);
  auto serial_out = serial.inject_batch(sim::as_injection_batch(c.wl));

  sim::EngineOptions opts;
  opts.workers = 2;
  opts.deterministic = true;
  opts.trace_sample = 4;
  opts.profile = true;
  sim::TrafficEngine engine(c.ev.delta, opts);
  auto traced_out = engine.run(c.wl);
  EXPECT_TRUE(serial_out == traced_out)
      << "tracing changed the delivery stream";
  EXPECT_TRUE(serial.merged_state() == engine.network().merged_state())
      << "tracing changed final state";
}

// ------------------------------------------------ cycle attribution gate

TEST(ObsCycles, Det2wAttributesNinetyPercentOfWall) {
#if !SNAP_OBS
  GTEST_SKIP() << "telemetry hooks compiled out (SNAP_OBS=0)";
#endif
  Compiled& c = compiled();
  sim::EngineOptions opts;
  opts.workers = 2;
  opts.deterministic = true;
  opts.profile = true;
  sim::TrafficEngine engine(c.ev.delta, opts);
  engine.run(c.wl);
  const sim::SimStats& st = engine.stats();
  ASSERT_EQ(st.cycles.size(), 3u);
  for (const sim::SimStats::CycleRow& row : st.cycles) {
    ASSERT_GT(row.wall_ns, 0u) << row.name;
    std::uint64_t attributed = 0;
    for (std::uint64_t ns : row.cat_ns) attributed += ns;
    EXPECT_GE(static_cast<double>(attributed),
              0.90 * static_cast<double>(row.wall_ns))
        << row.name << " attributes only " << attributed << "/"
        << row.wall_ns << " ns";
  }
}

// -------------------------------------------- steady-state zero-alloc

TEST(ObsOverhead, BurstSteadyStateAllocFreeWithTelemetryArmed) {
  // The PR-8 invariant must survive the hooks compiled in AND armed: a
  // warmed burst pipeline's second run reports zero heap-growth events
  // even while cycle accounting and span recording are live.
  Compiled& c = compiled();
  sim::BurstTrace bt = sim::make_bursts(c.wl, sim::kMaxBurst);
  Network net(c.ev.delta);
  sim::BurstPipeline pipe(net);
  obs::ThreadBuf buf("burst", 0);
  buf.arm(/*trace_on=*/true, /*acct_on=*/true);
  obs::BindThread bind(&buf);
  pipe.run(bt);  // warm-up: growth allowed
  pipe.discard_staged();
  pipe.run(bt);
  EXPECT_EQ(pipe.last_run_allocs(), 0u)
      << "telemetry hooks allocate in the steady state";
  pipe.discard_staged();
#if SNAP_OBS
  EXPECT_GT(buf.recorded(), 0u);
#endif
}

// ------------------------------------------------- engine registry wiring

TEST(ObsRegistry, EnginePopulatesGlobalRegistry) {
  Compiled& c = compiled();
  obs::Registry::global().clear();
  sim::EngineOptions opts;
  opts.workers = 2;
  opts.deterministic = true;
  sim::TrafficEngine engine(c.ev.delta, opts);
  engine.run(c.wl);
  std::string prom = obs::Registry::global().prometheus();
  for (const char* series :
       {"snap_engine_workers 2", "snap_engine_packets_total 4000",
        "snap_engine_pps", "snap_conflict_cache_hits_total",
        "snap_epoch_slot_hwm", "snap_epoch_stall_total{cause=\"slot\"}",
        "snap_ring_occupancy_hwm{ring=\"task_w0\"}",
        "snap_state_table_entries"}) {
    EXPECT_NE(prom.find(series), std::string::npos)
        << "registry lost series " << series;
  }
}

}  // namespace
}  // namespace snap
