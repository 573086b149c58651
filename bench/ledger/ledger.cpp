// bench_ledger — the performance ledger: SNAP measured end to end, from
// policy text to delivered packets, and layer by layer.
//
//   bench_ledger --workload NAME --seed S [--seconds T] [--traced]
//                [--out FILE] [--trace-file FILE]
//
// One process runs one workload. Its inputs (topology, traffic matrix,
// policy texts, event script, packet trace) are built before any timing;
// only the packets depend on --seed. Every workload runs the same four
// phases on its own inputs, one sample per step:
//
//   1. set-up      a cold deployment: policy text -> parse_policy ->
//                  Session::full_compile -> Network -> BurstPipeline ->
//                  TrafficEngine (setup_s).
//   2. events      one event of the workload's Session script (set_policy
//                  from policy text, set_traffic, fail_switch /
//                  restore_switch), its delta applied to a live Network.
//                  The network patched by every delta must match a cold
//                  Network(session.deployment()) on a probe trace.
//   3. data plane  one closed-loop round over the pre-generated trace, at
//                  most EngineOptions::window = 512 packets in flight, in
//                  process, no real link: the serial BurstPipeline, the
//                  deterministic engine and the free-running run-to-
//                  completion engine (W = 2 workers each, plus the calling
//                  thread), one persistent instance per mode warmed by one
//                  checked run, the mode order rotating per round.
//   4. live        the first script pass's deltas through run_live at a
//                  fixed packet spacing on a fresh deterministic engine,
//                  checked against the quiesced drain -> apply -> resume
//                  reference.
//
// The first set-up and the first script pass run first (they provide the
// deployment and the live schedule); all other steps are interleaved so
// each metric's samples spread over the whole run.
//
// Every layer is timed from outside, around calls to its public functions;
// the only other sources are counters and timers the program already
// exposes (EventResult::times / engine, SimStats, the obs stage clock).
// --traced adds bench-local spans around every layer call (written as a
// Chrome trace, next to the engine's own trace()), arms
// EngineOptions::profile, and reports the per-layer metrics instead of the
// end-to-end ones; README.md lists both sets and what each should move.
//
// Output: one `name value unit (n=..., p25-p75)` line per metric, and with
// --out a JSON file {workload, seed, traced, attempted, failed, failures,
// metrics{name: {value, unit, n, p25, p75, samples}}}. Exit 0 when the
// workload ran (failed checks are reported, not fatal), 1 on a fatal error,
// 2 on usage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "compiler/session.h"
#include "dataplane/network.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "netasm/decoded.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/burst.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "topo/gen.h"
#include "topo/traffic.h"
#include "util/timer.h"

#ifndef SNAP_POLICY_DIR
#define SNAP_POLICY_DIR "policies"
#endif

// Global allocation counter: every operator-new call in the process,
// worker threads included, so a phase's delta is its heap traffic.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace snap {
namespace {

constexpr int kWorkers = 2;
// Run lengths below are calibrated for --seconds 20 on a 4-core x86 box;
// other values scale the round counts linearly.
constexpr double kCalibratedSeconds = 20.0;
// Packets of the phase-2 probe that compares the event-patched network
// with a cold deployment.
constexpr std::size_t kProbePackets = 20000;
// Independently seeded workload draws interleaved into one trace.
constexpr int kSubtraces = 32;

// ------------------------------------------------------------ reporting

// Linear-interpolation quantile of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses ? static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

struct Metric {
  std::string name, unit;
  double value = 0, p25 = 0, p75 = 0;
  std::size_t n = 0;
  std::vector<double> samples;
};

// The metrics of one run, in insertion order, plus its correctness checks.
class Report {
 public:
  void add(const std::string& name, const std::string& unit,
           const std::vector<double>& xs) {
    if (xs.empty()) {
      check(false, "no samples for " + name);
      return;
    }
    metrics_.push_back({name, unit, median(xs), quantile(xs, 0.25),
                        quantile(xs, 0.75), xs.size(), xs});
  }
  // A single value, or one statistic (a percentile) of an n-sample.
  void add(const std::string& name, const std::string& unit, double v,
           std::size_t n = 1) {
    metrics_.push_back({name, unit, v, v, v, n, {}});
  }

  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("%-36s %14.6g %-7s (n=%zu, %.6g-%.6g)\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.n, m.p25, m.p75);
    }
    std::printf("checks: %llu attempted, %llu failed (error_rate %.6g)\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                attempted_ ? static_cast<double>(failed_) /
                                 static_cast<double>(attempted_)
                           : 0.0);
  }

  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed, bool traced) const {
    std::ofstream out(path);
    out << std::setprecision(std::numeric_limits<double>::max_digits10)
        << "{\"workload\":\"" << json_escape(workload) << "\",\"seed\":"
        << seed << ",\"traced\":" << (traced ? "true" : "false")
        << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
        << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      out << (i ? "," : "") << '"' << json_escape(failures_[i]) << '"';
    }
    out << "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out << (i ? "," : "") << '"' << m.name << "\":{\"value\":" << m.value
          << ",\"unit\":\"" << m.unit << "\",\"n\":" << m.n
          << ",\"p25\":" << m.p25 << ",\"p75\":" << m.p75
          << ",\"samples\":[";
      for (std::size_t k = 0; k < m.samples.size(); ++k) {
        out << (k ? "," : "") << m.samples[k];
      }
      out << "]}";
    }
    out << "}}\n";
    out.flush();
    return out.good();
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};

// Bench-local spans around layer calls (--traced): name, start, end and
// the enclosing span, kept in memory and written at exit.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Span {
   public:
    Span(Tracer& t, const char* name) : t_(t) {
      if (!t_.on_) return;
      idx_ = static_cast<int>(t_.recs_.size());
      t_.recs_.push_back({name, obs::tick_ns(), 0, t_.open_});
      t_.open_ = idx_;
    }
    ~Span() {
      if (idx_ < 0) return;
      t_.recs_[static_cast<std::size_t>(idx_)].t1 = obs::tick_ns();
      t_.open_ = t_.recs_[static_cast<std::size_t>(idx_)].parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  // Chrome trace-event JSON with matched B/E pairs: records are stored in
  // open order, so closing every open span that is not the next record's
  // parent before emitting its B yields a properly nested stream.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    const std::uint64_t base = recs_.empty() ? 0 : recs_.front().t0;
    auto ts = [&](std::uint64_t t) {
      return static_cast<double>(t - base) / 1e3;
    };
    out << std::setprecision(15) << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](int i, char ph) {
      const Rec& r = recs_[static_cast<std::size_t>(i)];
      out << (first ? "" : ",") << "{\"name\":\"" << r.name
          << "\",\"cat\":\"ledger\",\"ph\":\"" << ph
          << "\",\"pid\":1,\"tid\":1,\"ts\":" << ts(ph == 'B' ? r.t0 : r.t1);
      if (ph == 'B') {
        out << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << '}';
      }
      out << '}';
      first = false;
    };
    std::vector<int> stack;
    for (int i = 0; i < static_cast<int>(recs_.size()); ++i) {
      while (!stack.empty() &&
             stack.back() != recs_[static_cast<std::size_t>(i)].parent) {
        emit(stack.back(), 'E');
        stack.pop_back();
      }
      emit(i, 'B');
      stack.push_back(i);
    }
    while (!stack.empty()) {
      emit(stack.back(), 'E');
      stack.pop_back();
    }
    out << "]}\n";
    out.flush();
    return out.good();
  }

 private:
  struct Rec {
    const char* name;
    std::uint64_t t0, t1;
    int parent;
  };
  bool on_;
  std::vector<Rec> recs_;
  int open_ = -1;
};

double rss_mb() {
  std::ifstream f("/proc/self/statm");
  long size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Per-switch state equality (stronger than merged_state equality, and
// copies nothing).
bool same_state(const Network& a, const Network& b) {
  const int n = a.topo().num_switches();
  if (n != b.topo().num_switches()) return false;
  for (int sw = 0; sw < n; ++sw) {
    if (!(a.switch_at(sw).state() == b.switch_at(sw).state())) return false;
  }
  return true;
}

std::size_t state_entries(const Network& net) {
  std::size_t n = 0;
  for (int sw = 0; sw < net.topo().num_switches(); ++sw) {
    const Store& st = net.switch_at(sw).state();
    for (StateVarId v : st.var_ids()) n += st.table(v).entries().size();
  }
  return n;
}

// ------------------------------------------------------------- workloads

struct Spec {
  const char* name;
  bool stanford;           // Table-5 Stanford topology (else Figure-2 campus)
  bool spoof;              // fresh spoofed sources in every round's trace
  std::size_t packets;     // trace size
  int cycles;              // campus script: 6-event cycles
  int passes;              // times the event script runs
  std::size_t live_every;  // packets between live events
  int setups;              // cold set-ups behind setup_s
  int dp_rounds;           // timed data-plane rounds (at 20 s)
  int live_rounds;         // timed run_live rounds (at 20 s)
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Spec kSpecs[] = {
    {"campus-mixed", false, false, 150000, 5, 4, 3000, 15, 10, 6},
    {"campus-spoof", false, true, 150000, 5, 4, 3000, 15, 6, 6},
    {"campus-live", false, false, 150000, 16, 3, 1000, 15, 8, 5},
    {"stanford-events", true, false, 60000, 0, 1, 1200, 3, 8, 8},
};

enum class EvKind { kPolicy, kTraffic, kFail, kRestore };

const char* to_string(EvKind k) {
  switch (k) {
    case EvKind::kPolicy: return "set_policy";
    case EvKind::kTraffic: return "set_traffic";
    case EvKind::kFail: return "fail_switch";
    case EvKind::kRestore: return "restore_switch";
  }
  return "?";
}

struct ScriptEvent {
  EvKind kind;
  std::string text;  // kPolicy: the whole policy, in concrete syntax
  TrafficMatrix tm;  // kTraffic
  int sw = -1;       // kFail / kRestore
};

struct Inputs {
  Topology topo;
  TrafficMatrix tm;
  std::string policy_text;  // deployed at set-up
  std::vector<ScriptEvent> script;
  sim::Workload trace;
};

// Gravity traffic at 20% of aggregate edge capacity.
TrafficMatrix gravity(const Topology& topo, std::uint64_t seed) {
  return gravity_traffic(
      topo, 0.2 * 10.0 * static_cast<double>(topo.ports().size()), seed);
}

// Switches a failure event may take down: no OBS port, and the rest of the
// network stays connected without them.
std::vector<int> failable_switches(const Topology& topo) {
  const int n = topo.num_switches();
  std::vector<bool> has_port(static_cast<std::size_t>(n), false);
  for (PortId p : topo.ports()) {
    has_port[static_cast<std::size_t>(topo.port_switch(p))] = true;
  }
  std::vector<int> out;
  for (int sw = 0; sw < n; ++sw) {
    if (has_port[static_cast<std::size_t>(sw)]) continue;
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    seen[static_cast<std::size_t>(sw)] = true;
    const int start = sw == 0 ? 1 : 0;
    std::vector<int> queue{start};
    seen[static_cast<std::size_t>(start)] = true;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      for (const auto& [next, link] : topo.out_links(queue[i])) {
        (void)link;
        if (seen[static_cast<std::size_t>(next)]) continue;
        seen[static_cast<std::size_t>(next)] = true;
        queue.push_back(next);
      }
    }
    if (static_cast<int>(queue.size()) == n - 1) out.push_back(sw);
  }
  return out;
}

// The Figure-11 composite: heavy-hitter >> udp-flood >> stateful-firewall
// >> dns-tunnel >> assign-egress, or the same apps re-chained (same state,
// new diagram and placement).
PolPtr campus_composite(
    const std::vector<std::pair<std::string, PortId>>& subnets,
    bool reordered) {
  PolPtr hh = apps::heavy_hitter("hh", 3);
  PolPtr uf = apps::udp_flood("uf", 3);
  PolPtr fw = apps::stateful_firewall("fw", "10.0.6.0/24");
  PolPtr dt = apps::dns_tunnel_detect("dt", "10.0.6.0/24", 3);
  PolPtr eg = apps::assign_egress(subnets);
  return reordered ? uf >> (hh >> (dt >> (fw >> eg)))
                   : hh >> (uf >> (fw >> (dt >> eg)));
}

// The Stanford script's policies: five of the eleven corpus policies (a
// set_policy costs 1-2 s there, so all eleven would double the run), the
// four whose xFDD composition is heaviest plus the lightest.
constexpr const char* kStanfordPolicies[] = {
    "dns_amplification", "dns_tunnel_detect", "heavy_hitter", "udp_flood",
    "stateful_firewall"};

std::string read_policy(const std::string& name) {
  const std::string path = std::string(SNAP_POLICY_DIR) + "/" + name + ".snap";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  in.topo = spec.stanford ? make_table5_topology(table5_specs()[0], 42)
                          : make_figure2_campus();
  // Only the packets come from the seed (the trace here, the spoofed
  // sources in the data-plane rounds). The matrices, failed switches and
  // event order are fixed: on the 6-port campus another gravity draw moves
  // serial pps by up to 1.8x, and on Stanford the order of the policy
  // changes moves their cost by as much, which would swamp a change under
  // test.
  in.tm = gravity(in.topo, 1);
  const auto subnets = apps::default_subnets(in.topo.ports());
  const std::vector<int> failable = failable_switches(in.topo);
  std::size_t failures = 0;
  std::uint64_t matrices = 1;
  auto policy = [](const PolPtr& p) {
    return ScriptEvent{EvKind::kPolicy, to_string(p), {}, -1};
  };
  auto traffic = [&] {
    return ScriptEvent{EvKind::kTraffic, {}, gravity(in.topo, ++matrices), -1};
  };
  auto fail_restore = [&] {
    const int sw = failable[failures++ % failable.size()];
    in.script.push_back({EvKind::kFail, {}, {}, sw});
    in.script.push_back({EvKind::kRestore, {}, {}, sw});
  };

  if (!spec.stanford) {
    in.policy_text = to_string(campus_composite(subnets, false));
    for (int c = 0; c < spec.cycles; ++c) {
      in.script.push_back(policy(campus_composite(subnets, true)));
      in.script.push_back(traffic());
      fail_restore();
      in.script.push_back(policy(campus_composite(subnets, false)));
      in.script.push_back(traffic());
    }
  } else {
    // DNS-tunnel detection on the last port's subnet plus routing, under
    // the operator assumption (the paper's evaluation program).
    std::string cs_subnet = subnets.back().first;
    PredPtr assume = apps::assumption(subnets);
    in.policy_text =
        to_string(dsl::filter(assume) >>
                  (apps::dns_tunnel_detect("dns", cs_subnet, 10) >>
                   apps::assign_egress(subnets)));
    // Each corpus text composed with the assumption filter and
    // assign-egress, followed by a traffic change; a fail/restore pair
    // after every second policy.
    int i = 0;
    for (const char* name : kStanfordPolicies) {
      PolPtr app = parse_policy(read_policy(name), apps::protocol_constants());
      in.script.push_back(policy(dsl::filter(assume) >>
                                 (app >> apps::assign_egress(subnets))));
      in.script.push_back(traffic());
      if (++i % 2 == 0) fail_restore();
    }
  }

  // The trace interleaves kSubtraces independently seeded draws, each with
  // its own flow table (flow ids offset to stay distinct). One draw holds
  // only ~200 campus flows, a few of them hot, so a single seed's shape mix
  // swings widely (UDP share 9-49% over seeds 1-10); 32 draws hold it to
  // 27-31%.
  const sim::Scenario& mixed = *sim::find_scenario("mixed");
  std::vector<sim::Workload> parts;
  for (int k = 0; k < kSubtraces; ++k) {
    parts.push_back(sim::WorkloadGen(in.topo, in.tm, seed * kSubtraces + k)
                        .generate(mixed, spec.packets / kSubtraces));
  }
  in.trace.scenario = mixed.name;
  in.trace.seed = seed;
  const std::size_t n = spec.packets / kSubtraces * kSubtraces;
  in.trace.packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i % kSubtraces;
    sim::SimPacket p = std::move(parts[k].packets[i / kSubtraces]);
    p.flow += static_cast<std::uint32_t>(k) << 24;
    in.trace.packets.push_back(std::move(p));
  }
  return in;
}

// campus-spoof's per-round traces: every source outside the protected
// 10.0.6.0/24 is rewritten to an address no earlier round used (a seeded
// bijection of a counter, so addresses never repeat within a run).
// Destinations are untouched, so routing and egress do not change.
class Spoofer {
 public:
  explicit Spoofer(std::uint64_t seed)
      : salt_(static_cast<std::uint32_t>((seed * 0x9E3779B97F4A7C15ULL) >>
                                         32)) {}

  sim::Workload apply(const sim::Workload& base) {
    sim::Workload wl = base;
    const FieldId src = fields::srcip();
    for (sim::SimPacket& p : wl.packets) {
      auto ip = p.pkt.get(src);
      if (ip && (*ip & 0xFFFFFF00) != 0x0A000600) p.pkt.set(src, fresh());
    }
    return wl;
  }

 private:
  Value fresh() {
    for (;;) {
      const std::uint32_t a = (next_++ * 0x9E3779B1u) ^ salt_;
      if ((a & 0xFFFFFF00u) != 0x0A000600u) return a;
    }
  }
  std::uint32_t salt_;
  std::uint32_t next_ = 1;
};

// One round's trace: the workload plus its SoA bursts.
struct RoundTrace {
  sim::Workload wl;
  sim::BurstTrace bt;
  explicit RoundTrace(sim::Workload w) : wl(std::move(w)) {
    bt = sim::make_bursts(wl, sim::kMaxBurst);
  }
};

// ------------------------------------------------------------- the phases

struct Ctx {
  const Spec& spec;
  const Inputs& in;
  std::uint64_t seed;
  double scale;  // --seconds / kCalibratedSeconds
  bool traced;
  Report& rep;
  Tracer& tr;

  int rounds(int calibrated) const {
    return std::max(2, static_cast<int>(calibrated * scale + 0.5));
  }
};

sim::EngineOptions engine_opts(bool deterministic, bool traced) {
  sim::EngineOptions o;
  o.workers = kWorkers;
  o.deterministic = deterministic;
  o.profile = traced;
  return o;
}

double phase_time(const PhaseTimes& t, PhaseId p) {
  switch (p) {
    case PhaseId::kP1Dependency: return t.p1_dependency;
    case PhaseId::kP2Xfdd: return t.p2_xfdd;
    case PhaseId::kP3Psmap: return t.p3_psmap;
    case PhaseId::kP4Model: return t.p4_model;
    case PhaseId::kP5SolveSt: return t.p5_solve_st;
    case PhaseId::kP5SolveTe: return t.p5_solve_te;
    case PhaseId::kP6Rulegen: return t.p6_rulegen;
  }
  return 0;
}

struct Deployed {
  std::unique_ptr<Session> session;
  RuleDelta delta;
};

// Phase 1: cold deployments, policy text to a constructed engine; one
// sample of setup_s per step.
class SetupPhase {
 public:
  explicit SetupPhase(Ctx& c) : c_(c) {}

  Deployed step() {
    Tracer::Span span(c_.tr, "setup");
    Timer t;
    PolPtr p;
    {
      Tracer::Span s(c_.tr, "lang.parse_policy");
      p = parse_policy(c_.in.policy_text, apps::protocol_constants());
    }
    Deployed d;
    d.session = std::make_unique<Session>(c_.in.topo, c_.in.tm);
    {
      Tracer::Span s(c_.tr, "compiler.Session::full_compile");
      d.delta = d.session->full_compile(p).delta;
    }
    Timer td;
    std::unique_ptr<Network> net;
    {
      Tracer::Span s(c_.tr, "dataplane.Network");
      net = std::make_unique<Network>(d.delta);
    }
    deploy_ms_.push_back(td.milliseconds());
    {
      Tracer::Span s(c_.tr, "sim.BurstPipeline");
      sim::BurstPipeline pipe(*net);
      Tracer::Span e(c_.tr, "sim.TrafficEngine");
      sim::TrafficEngine eng(d.delta, engine_opts(true, false));
      setup_s_.push_back(t.seconds());
    }
    return d;
  }

  void report() {
    if (c_.traced) {
      c_.rep.add("dataplane.deploy_ms", "ms", deploy_ms_);
    } else {
      c_.rep.add("setup_s", "s", setup_s_);
    }
  }

 private:
  Ctx& c_;
  std::vector<double> setup_s_, deploy_ms_;
};

// Phase 2: the Session event script against a live Network, one event per
// step. The script repeats for `passes` passes, the session carrying its
// state over; the first pass's deltas are the live phase's schedule.
class EventPhase {
 public:
  EventPhase(Ctx& c, Session& s, const RuleDelta& deploy)
      : c_(c), s_(s), net_(deploy) {}

  const std::vector<RuleDelta>& first_pass() const { return deltas_; }

  void step() {
    const ScriptEvent& e = c_.in.script[cursor_ % c_.in.script.size()];
    const bool first_pass = cursor_ < c_.in.script.size();
    ++cursor_;
    const std::string label = to_string(e.kind);
    Tracer::Span span(c_.tr, to_string(e.kind));
    EventResult ev;
    double wall = 0;
    try {
      if (e.kind == EvKind::kPolicy) {
        PolPtr p;
        {
          Tracer::Span sp(c_.tr, "lang.parse_policy");
          Timer tp;
          p = parse_policy(e.text, apps::protocol_constants());
          parse_ms_.push_back(tp.milliseconds());
        }
        Tracer::Span sc(c_.tr, "compiler.Session::set_policy");
        Timer t;
        ev = s_.set_policy(p);
        wall = t.seconds();
      } else {
        Tracer::Span sc(c_.tr, "compiler.Session");
        Timer t;
        if (e.kind == EvKind::kTraffic) ev = s_.set_traffic(e.tm);
        if (e.kind == EvKind::kFail) ev = s_.fail_switch(e.sw);
        if (e.kind == EvKind::kRestore) ev = s_.restore_switch(e.sw);
        wall = t.seconds();
      }
      Tracer::Span sa(c_.tr, "dataplane.Network::apply");
      Timer ta;
      net_.apply(ev.delta);
      apply_ms_.push_back(ta.milliseconds());
    } catch (const std::exception& ex) {
      c_.rep.check(false, label + ": " + ex.what());
      return;
    }
    c_.rep.check(true, label);
    by_kind_[static_cast<int>(e.kind)].push_back(wall);
    event_ms_.push_back(wall * 1e3);
    double phases = 0;
    for (PhaseId p : ev.phases_run) {
      phase_s_[p].push_back(phase_time(ev.times, p));
      phases += phase_time(ev.times, p);
    }
    unattributed_.push_back(wall - phases);
    wall_sum_ += wall;
    phase_sum_ += phases;
    if (e.kind == EvKind::kPolicy) {
      expansions_.push_back(static_cast<double>(ev.engine.expansions));
      nodes_.push_back(static_cast<double>(s_.result().xfdd_nodes));
      hits_ += ev.engine.hits();
      misses_ += ev.engine.misses();
    }
    changed_.push_back(static_cast<double>(ev.delta.programs_touched()));
    if (first_pass) deltas_.push_back(std::move(ev.delta));
  }

  void report() {
    // The network patched by every delta must behave like a cold
    // deployment of the session's final state.
    {
      Tracer::Span span(c_.tr, "check.patched_vs_cold");
      Network cold(s_.deployment());
      sim::Workload probe;
      const std::size_t n =
          std::min(kProbePackets, c_.in.trace.packets.size());
      probe.packets.assign(c_.in.trace.packets.begin(),
                           c_.in.trace.packets.begin() +
                               static_cast<std::ptrdiff_t>(n));
      auto batch = sim::as_injection_batch(probe);
      auto got = net_.inject_batch(batch);
      auto want = cold.inject_batch(batch);
      c_.rep.check(got == want && same_state(net_, cold),
                   "event-patched network matches a cold deployment");
    }
    Report& r = c_.rep;
    if (!c_.traced) {
      r.add("policy_change_s", "s", by_kind_[0]);
      r.add("traffic_change_s", "s", by_kind_[1]);
      std::vector<double> failure = by_kind_[2];
      failure.insert(failure.end(), by_kind_[3].begin(), by_kind_[3].end());
      r.add("failure_s", "s", failure);
      return;
    }
    // Per event, work outside the phases (topology and delta-context
    // rebuilds) is a fixed ~0.5-1 ms, most of a campus set_traffic; summed
    // over the script the phases must account for the wall time.
    r.check(std::abs(wall_sum_ - phase_sum_) <= 0.1 * wall_sum_,
            "phase times within 10% of the summed event wall (" +
                std::to_string(phase_sum_) + " of " +
                std::to_string(wall_sum_) + " s)");
    r.add("lang.parse_ms", "ms", parse_ms_);
    r.add("analysis.depgraph_s", "s", phase_s_[PhaseId::kP1Dependency]);
    r.add("xfdd.compose_s", "s", phase_s_[PhaseId::kP2Xfdd]);
    r.add("xfdd.expansions", "count", expansions_);
    r.add("xfdd.hit_rate", "ratio", hit_ratio(hits_, misses_));
    r.add("xfdd.nodes", "count", nodes_);
    r.add("analysis.psmap_s", "s", phase_s_[PhaseId::kP3Psmap]);
    r.add("milp.model_s", "s", phase_s_[PhaseId::kP4Model]);
    r.add("milp.solve_st_s", "s", phase_s_[PhaseId::kP5SolveSt]);
    r.add("milp.solve_te_s", "s", phase_s_[PhaseId::kP5SolveTe]);
    r.add("rulegen.assemble_s", "s", phase_s_[PhaseId::kP6Rulegen]);
    std::size_t instructions = 0;
    for (const auto& [sw, prog] : s_.deployed_programs()) {
      instructions += prog.code.size();
    }
    r.add("rulegen.instructions", "count",
          static_cast<double>(instructions));
    r.add("rulegen.changed_switches", "count", changed_);
    r.add("dataplane.apply_ms", "ms", apply_ms_);
    r.add("compiler.unattributed_s", "s", unattributed_);
    r.add("compiler.event_ms_p50", "ms", event_ms_);
  }

 private:
  Ctx& c_;
  Session& s_;
  Network net_;
  std::size_t cursor_ = 0;
  std::vector<RuleDelta> deltas_;
  std::vector<double> by_kind_[4], parse_ms_, apply_ms_, event_ms_;
  std::vector<double> unattributed_, expansions_, nodes_, changed_;
  std::map<PhaseId, std::vector<double>> phase_s_;
  std::uint64_t hits_ = 0, misses_ = 0;
  double wall_sum_ = 0, phase_sum_ = 0;
};

// Stage-clock shares of the engine's cycle-accounting rows (profile mode),
// summed over runs: the scheduler row and the workers' rows.
struct CycleShares {
  std::vector<std::uint64_t> sched, workers;
  std::uint64_t sched_wall = 0, workers_wall = 0;

  void add(const sim::SimStats& st) {
    for (const auto& row : st.cycles) {
      const bool is_sched = row.name == "scheduler";
      auto& acc = is_sched ? sched : workers;
      acc.resize(std::max(acc.size(), row.cat_ns.size()), 0);
      for (std::size_t i = 0; i < row.cat_ns.size(); ++i) {
        acc[i] += row.cat_ns[i];
      }
      (is_sched ? sched_wall : workers_wall) += row.wall_ns;
    }
  }
  static double share(const std::vector<std::uint64_t>& acc,
                      std::uint64_t wall, std::initializer_list<obs::Cat> cs) {
    if (wall == 0) return 0;
    double n = 0;
    for (obs::Cat cat : cs) {
      const auto i = static_cast<std::size_t>(cat);
      if (i < acc.size()) n += static_cast<double>(acc[i]);
    }
    return n / static_cast<double>(wall);
  }
  double sched_share(std::initializer_list<obs::Cat> cs) const {
    return share(sched, sched_wall, cs);
  }
  double worker_share(std::initializer_list<obs::Cat> cs) const {
    return share(workers, workers_wall, cs);
  }
};

// --traced only: the serial layers measured apart, in five interleaved
// pairs: a standalone DirectXfdd::classify_burst pass over the round's
// bursts, then a pipeline pass with the obs stage clock armed for the
// state-suffix time. The medians of classify, suffix and materialization
// must come within 10% of the pipeline's own median total.
void serial_layers(Ctx& c, const RuleDelta& deploy, const RoundTrace& t,
                   double materialize_ns) {
  const double pkts = static_cast<double>(t.bt.packets);
  netasm::DirectXfdd cls;
  {
    Tracer::Span s(c.tr, "netasm.DirectXfdd::build_network");
    cls = netasm::DirectXfdd::build_network(*deploy.store, deploy.root);
  }
  auto plan = cls.prepare_classify(t.bt.fields);
  netasm::DirectXfdd::ClassifyScratch scratch;
  alignas(64) std::int32_t terminal[sim::kMaxBurst];
  alignas(64) std::uint16_t instr[sim::kMaxBurst];
  std::uint64_t checksum = 0;

  Network net(deploy);
  sim::BurstPipeline pipe(net);
  pipe.run(t.bt);  // warm-up
  pipe.discard_staged();
  obs::ThreadBuf buf("ledger", 0);
  std::vector<double> classify_ns, suffix_ns, wall_ns;
  for (int pass = 0; pass < 5; ++pass) {
    {
      Tracer::Span s(c.tr, "netasm.DirectXfdd::classify_burst");
      Timer tc;
      for (const sim::PacketBurst& b : t.bt.bursts) {
        const std::uint64_t active =
            b.n >= 64 ? ~0ull : ((1ull << b.n) - 1);
        cls.classify_burst(plan, {b.vals, b.present}, active, terminal,
                           instr, scratch);
        checksum += static_cast<std::uint64_t>(terminal[0]) + instr[0];
      }
      classify_ns.push_back(tc.seconds() * 1e9 / pkts);
    }
    buf.arm(false, true);
    {
      Tracer::Span s(c.tr, "sim.BurstPipeline::run (stage clock)");
      obs::BindThread bind(&buf);
      Timer tw;
      pipe.run(t.bt);
      wall_ns.push_back(tw.seconds() * 1e9 / pkts);
    }
    pipe.discard_staged();
    suffix_ns.push_back(
        static_cast<double>(
            buf.cat_ns()[static_cast<std::size_t>(obs::Cat::kStateSuffix)]) /
        pkts);
  }
  c.rep.check(checksum != 0, "classify pass produced terminals");
  c.rep.add("netasm.classify_ns_per_pkt", "ns/pkt", classify_ns);
  c.rep.add("sim.burst.suffix_ns_per_pkt", "ns/pkt", suffix_ns);
  const double parts =
      median(classify_ns) + median(suffix_ns) + materialize_ns;
  const double total = median(wall_ns) + materialize_ns;
  c.rep.check(parts >= 0.9 * total && parts <= 1.1 * total,
              "serial layers (classify + suffix + materialize, " +
                  std::to_string(parts) +
                  " ns/pkt) within 10% of the pipeline total (" +
                  std::to_string(total) + ")");
}

// --traced only: the traced (profile + 1/1024 packet sampling) over the
// untraced deterministic engine, as adjacent pairs of fresh engines.
void trace_overhead(Ctx& c, const RuleDelta& deploy, const RoundTrace& t,
                    const std::string& engine_trace_file) {
  std::vector<double> ratio;
  for (int pair = 0; pair < 3; ++pair) {
    double pps[2];
    for (int traced = 0; traced < 2; ++traced) {
      sim::EngineOptions o = engine_opts(true, traced);
      if (traced) o.trace_sample = 1024;
      sim::TrafficEngine eng(deploy, o);
      Tracer::Span s(c.tr, traced ? "sim.TrafficEngine::run (traced)"
                                  : "sim.TrafficEngine::run (untraced)");
      Timer tt;
      eng.run(t.wl);
      pps[traced] = static_cast<double>(t.wl.packets.size()) / tt.seconds();
      if (traced && pair == 0 && !engine_trace_file.empty()) {
        c.rep.check(
            obs::write_chrome_trace_file(eng.trace(), engine_trace_file),
            "engine trace written");
      }
    }
    ratio.push_back(pps[1] / pps[0]);
  }
  c.rep.add("obs.trace_overhead", "ratio", ratio);
}

// Phase 3: closed-loop data-plane rounds, one round (every mode once, in
// rotating order) per step, after a checked warm-up run of each mode.
class DataPlanePhase {
 public:
  DataPlanePhase(Ctx& c, const RuleDelta& deploy, int rounds)
      : c_(c),
        deploy_(deploy),
        rounds_(rounds),
        spoofer_(c.seed),
        t_(next_trace()),
        rss0_(rss_mb()),
        snet_(deploy),
        pipe_(snet_),
        det_(deploy, engine_opts(true, c.traced)),
        fr_(deploy, engine_opts(false, c.traced)) {
    Tracer::Span span(c_.tr, "dataplane.warmup");
    Network ref(deploy);
    auto want = ref.inject_batch(sim::as_injection_batch(t_->wl));
    pipe_.run(t_->bt);
    auto got_s = pipe_.take_deliveries();
    auto got_d = det_.run(t_->wl);
    fr_.run(t_->wl);
    c_.rep.check(got_s == want && same_state(snet_, ref),
                 "serial pipeline matches Network::inject_batch");
    c_.rep.check(got_d == want && same_state(det_.network(), ref),
                 "deterministic engine matches Network::inject_batch");
    c_.rep.check(fr_.stats().packets == t_->wl.packets.size(),
                 "free-running engine completes every packet");
  }

  void step() {
    ++round_;
    if (c_.spec.spoof) t_ = next_trace();
    const double pkts = static_cast<double>(t_->wl.packets.size());
    const bool checked = round_ == 1 || round_ == rounds_;
    std::vector<Network::Delivery> out_s, out_d;
    for (int i = 0; i < 3; ++i) {
      const int mode = (round_ + i) % 3;
      if (mode == 0) {
        Tracer::Span span(c_.tr, "sim.BurstPipeline::run");
        Timer tt;
        pipe_.run(t_->bt);
        const double s = tt.seconds();
        pps_[0].push_back(pkts / s);
        burst_ns_.push_back(s * 1e9 / pkts);
        steady_allocs_.push_back(
            static_cast<double>(pipe_.last_run_allocs()));
        if (checked || c_.traced) {
          Tracer::Span sm(c_.tr, "sim.BurstPipeline::take_deliveries");
          Timer tm;
          out_s = pipe_.take_deliveries();
          materialize_ns_.push_back(tm.seconds() * 1e9 / pkts);
        } else {
          pipe_.discard_staged();
        }
      } else if (mode == 1) {
        Tracer::Span span(c_.tr, "sim.TrafficEngine::run (deterministic)");
        const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
        Timer tt;
        auto out = det_.run(t_->wl);
        pps_[1].push_back(pkts / tt.seconds());
        det_allocs_.push_back(
            static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                                a0) /
            pkts);
        const sim::SimStats& st = det_.stats();
        conflict_hits_ += st.conflict_hits;
        conflict_misses_ += st.conflict_misses;
        forwards_.push_back(static_cast<double>(st.forwards) / pkts);
        lookahead_.push_back(static_cast<double>(st.lookahead_dispatches));
        shares_.add(st);
        if (checked) out_d = std::move(out);
      } else {
        Tracer::Span span(c_.tr, "sim.TrafficEngine::run (free-running)");
        Timer tt;
        fr_.run(t_->wl);
        pps_[2].push_back(pkts / tt.seconds());
        c_.rep.check(fr_.stats().packets == t_->wl.packets.size(),
                     "free-running engine completes every packet");
      }
    }
    if (checked) {
      c_.rep.check(out_s == out_d && same_state(snet_, det_.network()),
                   "round " + std::to_string(round_) +
                       ": serial and deterministic deliveries and state "
                       "identical");
    }
  }

  void report(const std::string& engine_trace_file) {
    Report& r = c_.rep;
    if (!c_.traced) {
      r.add("pps_serial", "1/s", pps_[0]);
      r.add("pps_det", "1/s", pps_[1]);
      r.add("pps_free", "1/s", pps_[2]);
      return;
    }
    using obs::Cat;
    r.add("sim.burst.ns_per_pkt", "ns/pkt", burst_ns_);
    r.add("sim.burst.materialize_ns_per_pkt", "ns/pkt", materialize_ns_);
    r.add("sim.burst.steady_allocs", "count", steady_allocs_);
    r.add("state.entries", "count",
          static_cast<double>(state_entries(snet_)));
    r.add("state.rss_growth_mb", "MB", rss_mb() - rss0_);
    r.add("sim.conflict.hit_ratio", "ratio",
          hit_ratio(conflict_hits_, conflict_misses_));
    r.add("sim.engine.sched.dispatch_share", "ratio",
          shares_.sched_share({Cat::kDispatch, Cat::kMaskResolve,
                               Cat::kWindowAdmit, Cat::kBurstAssemble}));
    r.add("sim.engine.sched.gate_wait_share", "ratio",
          shares_.sched_share({Cat::kGateWait}));
    r.add("sim.engine.sched.idle_share", "ratio",
          shares_.sched_share({Cat::kIdle}));
    r.add("sim.engine.worker.exec_share", "ratio",
          shares_.worker_share({Cat::kExec, Cat::kClassify,
                                Cat::kStateSuffix, Cat::kWrite,
                                Cat::kEgress}));
    r.add("sim.engine.worker.ring_share", "ratio",
          shares_.worker_share({Cat::kRingPush, Cat::kRingPop,
                                Cat::kRingFull}));
    r.add("sim.engine.worker.idle_share", "ratio",
          shares_.worker_share({Cat::kIdle}));
    r.add("sim.engine.forwards_per_pkt", "1/pkt", forwards_);
    r.add("sim.engine.lookahead_dispatches", "count", lookahead_);
    r.add("sim.engine.allocs_per_pkt", "1/pkt", det_allocs_);
    serial_layers(c_, deploy_, *t_, median(materialize_ns_));
    trace_overhead(c_, deploy_, *t_, engine_trace_file);
  }

 private:
  std::unique_ptr<RoundTrace> next_trace() {
    return std::make_unique<RoundTrace>(
        c_.spec.spoof ? spoofer_.apply(c_.in.trace) : c_.in.trace);
  }

  Ctx& c_;
  const RuleDelta& deploy_;
  const int rounds_;
  int round_ = 0;
  Spoofer spoofer_;
  std::unique_ptr<RoundTrace> t_;
  const double rss0_;
  Network snet_;
  sim::BurstPipeline pipe_;
  sim::TrafficEngine det_, fr_;
  std::vector<double> pps_[3], materialize_ns_, burst_ns_, steady_allocs_;
  std::vector<double> det_allocs_, forwards_, lookahead_;
  std::uint64_t conflict_hits_ = 0, conflict_misses_ = 0;
  CycleShares shares_;
};

// Phase 4: the first script pass's deltas adopted under load, one run_live
// round on a fresh deterministic engine per step.
class LivePhase {
 public:
  LivePhase(Ctx& c, const RuleDelta& deploy,
            const std::vector<RuleDelta>& deltas)
      : c_(c), deploy_(deploy), ref_(deploy) {
    // The trace prefix holding every event plus one spacing after the last.
    const std::size_t n = std::min(c.in.trace.packets.size(),
                                   (deltas.size() + 1) * c.spec.live_every);
    wl_.packets.assign(c.in.trace.packets.begin(),
                       c.in.trace.packets.begin() +
                           static_cast<std::ptrdiff_t>(n));
    if (c.spec.spoof) wl_ = Spoofer(c.seed + 1).apply(wl_);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      schedule_.push_back({(i + 1) * c.spec.live_every, deltas[i],
                           "event" + std::to_string(i)});
    }
    c.rep.check(!schedule_.empty() &&
                    schedule_.back().at_seq < wl_.packets.size(),
                "live schedule fits inside the trace");

    // Quiesced reference: drain -> Network::apply -> resume.
    Tracer::Span span(c.tr, "live.quiesced_reference");
    std::size_t at = 0;
    auto inject_until = [&](std::size_t end) {
      for (; at < end && at < wl_.packets.size(); ++at) {
        auto out = ref_.inject(wl_.packets[at].inport, wl_.packets[at].pkt);
        ref_out_.insert(ref_out_.end(), out.begin(), out.end());
      }
    };
    for (const sim::LiveEvent& e : schedule_) {
      inject_until(e.at_seq);
      ref_.apply(e.delta);
    }
    inject_until(wl_.packets.size());
  }

  void step() {
    sim::TrafficEngine eng(deploy_, engine_opts(true, c_.traced));
    Tracer::Span span(c_.tr, "sim.TrafficEngine::run_live");
    Timer t;
    auto out = eng.run_live(wl_, schedule_);
    live_pps_.push_back(static_cast<double>(wl_.packets.size()) /
                        t.seconds());
    const sim::SimStats& st = eng.stats();
    bool adopted = st.events.size() == schedule_.size();
    double migrated = 0;
    for (const sim::LiveEventStats& es : st.events) {
      adopted = adopted && es.first_packet_seconds >= 0;
      adopt_ms_.push_back(es.first_packet_seconds * 1e3);
      swap_ms_.push_back(es.swap_seconds * 1e3);
      migrated += static_cast<double>(es.migrated_vars);
    }
    migrated_.push_back(migrated);
    stall_mask_.push_back(static_cast<double>(st.epoch_stall_mask));
    shares_.add(st);
    c_.rep.check(adopted, "every live event adopted mid-stream");
    c_.rep.check(out == ref_out_ && same_state(eng.network(), ref_),
                 "run_live matches the quiesced reference");
  }

  void report() {
    Report& r = c_.rep;
    r.check(adopt_ms_.size() >= 100,
            "adopt_ms_p90 has ten samples beyond it");
    if (!c_.traced) {
      r.add("live_pps", "1/s", live_pps_);
      r.add("adopt_ms_p50", "ms", adopt_ms_);
      if (!adopt_ms_.empty()) {
        r.add("adopt_ms_p90", "ms", quantile(adopt_ms_, 0.9),
              adopt_ms_.size());
      }
      return;
    }
    r.add("sim.engine.sched.epoch_swap_share", "ratio",
          shares_.sched_share({obs::Cat::kEpochSwap}));
    r.add("sim.engine.swap_ms_p50", "ms", swap_ms_);
    r.add("sim.engine.migrated_vars", "count", migrated_);
    r.add("sim.engine.epoch_stall_mask", "count", stall_mask_);
  }

 private:
  Ctx& c_;
  const RuleDelta& deploy_;
  sim::Workload wl_;
  std::vector<sim::LiveEvent> schedule_;
  Network ref_;
  std::vector<Network::Delivery> ref_out_;
  std::vector<double> live_pps_, adopt_ms_, swap_ms_, migrated_, stall_mask_;
  CycleShares shares_;
};

// Runs every phase's steps, always advancing the phase least far along its
// own count. On a shared machine whose speed drifts over seconds, this
// spreads each metric's samples over the whole run instead of one window.
struct Steps {
  int total;
  std::function<void()> step;
  int done = 0;
};

void interleave(std::vector<Steps> phases) {
  for (;;) {
    Steps* next = nullptr;
    for (Steps& p : phases) {
      if (p.done >= p.total) continue;
      if (!next || static_cast<long>(p.done) * next->total <
                       static_cast<long>(next->done) * p.total) {
        next = &p;
      }
    }
    if (!next) return;
    next->step();
    ++next->done;
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kCalibratedSeconds;
  bool traced = false;
  std::string out, trace_file;
};

int run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Inputs in = make_inputs(*spec, args.seed);
  Report rep;
  Tracer tr(args.traced);
  Ctx c{*spec, in, args.seed, args.seconds / kCalibratedSeconds,
        args.traced, rep, tr};
  std::printf("workload %s seed %llu: %s, %zu packets, %zu events, %d "
              "workers%s\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              in.topo.to_string().c_str(), in.trace.packets.size(),
              in.script.size(), kWorkers, args.traced ? ", traced" : "");

  std::string engine_trace;
  if (args.traced && !args.trace_file.empty()) {
    engine_trace = args.trace_file;
    const auto dot = engine_trace.rfind(".json");
    if (dot != std::string::npos) engine_trace.erase(dot);
    engine_trace += ".engine.json";
  }

  // The first cold set-up is the deployment every other phase starts
  // from; the first script pass produces the live schedule. Everything
  // after that is interleaved.
  SetupPhase setup(c);
  Deployed d = setup.step();
  EventPhase events(c, *d.session, d.delta);
  for (std::size_t i = 0; i < in.script.size(); ++i) events.step();
  DataPlanePhase dataplane(c, d.delta, c.rounds(spec->dp_rounds));
  LivePhase live(c, d.delta, events.first_pass());
  // Enough live rounds for 100 adoption samples, ten beyond the p90.
  const int events_per_round =
      std::max<int>(1, static_cast<int>(events.first_pass().size()));
  const int live_rounds = std::max(c.rounds(spec->live_rounds),
                                   (99 + events_per_round) / events_per_round);
  interleave({
      {spec->setups - 1, [&] { setup.step(); }},
      {(spec->passes - 1) * static_cast<int>(in.script.size()),
       [&] { events.step(); }},
      {c.rounds(spec->dp_rounds), [&] { dataplane.step(); }},
      {live_rounds, [&] { live.step(); }},
  });

  setup.report();
  events.report();
  dataplane.report(engine_trace);
  live.report();
  if (!args.traced) rep.add("peak_rss_mb", "MB", peak_rss_mb());

  if (args.traced && !args.trace_file.empty()) {
    rep.check(tr.write(args.trace_file), "bench trace written");
  }
  rep.print();
  if (!args.out.empty() &&
      !rep.write_json(args.out, spec->name, args.seed, args.traced)) {
    std::fprintf(stderr, "failed to write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace snap

int main(int argc, char** argv) {
  snap::Args args;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing argument for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      args.workload = need("--workload");
    } else if (!std::strcmp(argv[i], "--seed")) {
      args.seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      args.seconds = std::atof(need("--seconds"));
      if (!(args.seconds > 0 && args.seconds <= 600)) {
        std::fprintf(stderr, "bad --seconds (want (0, 600])\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--traced")) {
      args.traced = true;
    } else if (!std::strcmp(argv[i], "--out")) {
      args.out = need("--out");
    } else if (!std::strcmp(argv[i], "--trace-file")) {
      args.trace_file = need("--trace-file");
    } else {
      std::fprintf(stderr,
                   "usage: bench_ledger --workload NAME --seed S"
                   " [--seconds T] [--traced] [--out FILE]"
                   " [--trace-file FILE]\n");
      return 2;
    }
  }
  if (args.workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return 2;
  }
  try {
    return snap::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ledger: fatal: %s\n", e.what());
    return 1;
  }
}
