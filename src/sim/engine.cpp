#include "sim/engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <iomanip>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "netasm/decoded.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/conflict.h"
#include "sim/soundness.h"
#include "sim/spsc.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace snap {
namespace sim {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Switches a packet has already applied leaf writes on (mirrors the
// serial path's `applied` set). Fixed 256-bit: the engine checks the
// switch-count bound at construction.
struct SwitchSet {
  std::uint64_t bits[4] = {0, 0, 0, 0};

  void set(int i) { bits[i >> 6] |= (1ull << (i & 63)); }
  bool test(int i) const { return bits[i >> 6] & (1ull << (i & 63)); }
};

}  // namespace

std::string SimStats::to_json() const {
  std::ostringstream os;
  // Full precision so the JSON perf trajectory (BENCH_throughput.json)
  // round-trips seconds/pps exactly instead of losing digits to the
  // default 6-significant-digit formatting.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"packets\":" << packets << ",\"deliveries\":" << deliveries
     << ",\"forwards\":" << forwards << ",\"instructions\":" << instructions
     << ",\"hops\":" << hops << ",\"conflict_hits\":" << conflict_hits
     << ",\"conflict_misses\":" << conflict_misses
     << ",\"seconds\":" << seconds << ",\"pps\":" << pps
     << ",\"workers\":" << workers << ",\"burst\":" << burst
     << ",\"steady_allocs\":" << steady_allocs
     << ",\"deterministic\":" << (deterministic ? "true" : "false")
     << ",\"shard_mode\":\"" << shard_mode << "\""
     << ",\"shard_cross_edges\":" << shard_cross_edges
     << ",\"shard_total_edges\":" << shard_total_edges
     << ",\"shard_drift\":" << shard_drift
     << ",\"lookahead_dispatches\":" << lookahead_dispatches
     << ",\"rtc_bursts\":" << rtc_bursts;
  auto arr = [&os](const char* name, const std::vector<std::uint64_t>& v) {
    os << ",\"" << name << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
    os << "]";
  };
  arr("per_switch_instructions", per_switch_instructions);
  arr("per_switch_events", per_switch_events);
  arr("hop_histogram", hop_histogram);
  arr("latency_us_log2_histogram", latency_histogram);
  os << ",\"epoch_slot_hwm\":" << epoch_slot_hwm
     << ",\"epoch_stall_slot\":" << epoch_stall_slot
     << ",\"epoch_stall_mask\":" << epoch_stall_mask
     << ",\"epoch_stall_migration\":" << epoch_stall_migration
     << ",\"trace_records\":" << trace_records
     << ",\"trace_dropped\":" << trace_dropped;
  arr("ring_hwm", ring_hwm);
  arr("comp_ring_hwm", comp_ring_hwm);
  // The cycle-accounting table (profile mode): one row per engine
  // thread, wall time partitioned into obs::Cat buckets. Keys are the
  // stable obs::cat_name strings suffixed _ns; the golden-schema test
  // pins them.
  os << ",\"cycles\":[";
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const CycleRow& r = cycles[i];
    os << (i ? "," : "") << "{\"name\":\"" << r.name
       << "\",\"wall_ns\":" << r.wall_ns;
    for (std::size_t c = 0; c < r.cat_ns.size(); ++c) {
      os << ",\"" << obs::cat_name(static_cast<obs::Cat>(c))
         << "_ns\":" << r.cat_ns[c];
    }
    os << "}";
  }
  os << "],\"epochs\":" << epochs << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const LiveEventStats& e = events[i];
    os << (i ? "," : "") << "{\"label\":\"" << e.label
       << "\",\"at_seq\":" << e.at_seq << ",\"epoch\":" << e.epoch
       << ",\"migrated_switches\":" << e.migrated_switches
       << ",\"migrated_vars\":" << e.migrated_vars
       << ",\"swap_seconds\":" << e.swap_seconds
       << ",\"first_packet_seconds\":" << e.first_packet_seconds << "}";
  }
  os << "]}";
  return os.str();
}

// Epoch-context machinery for live updates (see engine.h header comment).
// Sequence numbers with this bit set tag control (migration) tasks, so
// workloads are bounded to 31-bit sequence space.
inline constexpr std::uint32_t kCtrlSeq = 0x80000000u;
// Task/Completion mask handle for "no conflict mask held" (free-running
// mode, empty masks, control tasks).
inline constexpr std::uint32_t kNoMask = 0xffffffffu;
// Concurrently-live epoch bound: a slot is reused only after every packet
// of its previous occupant completed.
inline constexpr std::uint32_t kEpochSlots = 8;

struct TrafficEngine::Impl {
  // Everything a packet resolves its walk through, snapshotted at the
  // epoch's swap and immutable afterwards. Workers reach it via the task's
  // epoch id; the only shared-with-other-epochs data a task touches is the
  // per-switch state tables, which stay worker-local.
  struct EpochCtx {
    std::uint32_t id = 0;
    // Shares ownership of the diagram store (null only for an epoch built
    // from a legacy caller-owned-store Network, whose caller guarantees
    // lifetime).
    std::shared_ptr<const XfddStore> store_owner;
    const XfddStore* store = nullptr;
    XfddId root = 0;
    Topology topo;
    Placement placement;
    Routing routing;
    RoutingTables tables;
    TestOrder order;
    // Per switch: the decoded program the switch held at the swap, shared
    // with it (install() replaces the switch's pointer, never the object).
    std::vector<std::shared_ptr<const netasm::DecodedProgram>> programs;
    // Deterministic mode only: this epoch's conflict-mask cache and the
    // scheduler's per-mask confinement memo (mask indices are
    // epoch-relative).
    std::unique_ptr<ConflictCache> conflict;
    std::vector<int> mask_worker;
    // Free-running RTC (built only when the run dispatches SoA bursts):
    // the network-mode flat diagram and the classify plan for the run's
    // trace universe. Workers resume the switches' decoded programs at the
    // classify terminals.
    netasm::DirectXfdd net_direct;
    netasm::DirectXfdd::ClassifyPlan rtc_plan;
    // Hop accounting against this epoch's topology, folded into the
    // Network at retirement (workers must not touch the Network's own
    // topology/counters — the scheduler repatches them mid-run).
    std::atomic<std::uint64_t> hops{0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> link_packets;
    std::size_t num_links = 0;

    void count_hop(int from, int to) {
      int l = topo.link_index(from, to);
      SNAP_CHECK(l >= 0, "forwarding over a missing link");
      hops.fetch_add(1, std::memory_order_relaxed);
      link_packets[static_cast<std::size_t>(l)].fetch_add(
          1, std::memory_order_relaxed);
    }
  };

  // A packet's cursor through the distributed walk, sent between shards.
  // kMigrate tasks are the scheduler's state-migration barriers: one per
  // affected switch, riding the same rings so per-worker FIFO places them
  // after every old-epoch dispatch and before every new-epoch one.
  struct Task {
    // kBurst is the free-running RTC descriptor: "classify and drain your
    // lanes of SoA burst `burst_idx`" — one per worker owning at least one
    // lane's ingress switch, fanned out by the scheduler.
    enum class Phase : std::uint8_t { kResolve, kWrite, kMigrate, kBurst };
    Phase phase = Phase::kResolve;
    std::uint32_t seq = 0;
    std::uint32_t epoch = 0;
    std::uint32_t hops = 0;
    std::uint32_t burst_idx = 0;  // kBurst only
    int sw = 0;
    XfddId node = 0;
    int guard = 0;
    PortId inport = 0;
    bool migrate_clear = false;  // kMigrate: clear all state vs prune
    // Sampled packet tracing (EngineOptions::trace_sample): workers emit
    // per-hop span records for this packet. Pure telemetry — never read
    // by scheduling decisions, so determinism is unaffected.
    bool traced = false;
    std::uint64_t t_dispatch_ns = 0;
    // Conflict-mask handle (epoch-relative) this packet holds in the
    // deterministic gate, or kNoMask. Riding in the task — and echoed in
    // its completion — removes the scheduler's per-packet in-flight map,
    // the last per-packet heap traffic on the dispatch/completion path.
    std::uint32_t mask_idx = kNoMask;
    // Soundness cross-check (EngineOptions::check_soundness): the sorted
    // conflict mask this packet was dispatched under, viewed into the
    // epoch's interned mask storage. Stable across the walk: interned mask
    // entries are never mutated, and vector reallocation of the outer
    // table moves the inner vectors without touching their heap buffers.
    const StateVarId* mask_vars = nullptr;
    std::uint32_t mask_n = 0;
    bool soundness = false;
    SwitchSet applied;
    Packet pkt;
  };

  struct Completion {
    std::uint32_t seq = 0;
    std::uint32_t epoch = 0;
    std::uint32_t hops = 0;
    std::uint32_t latency_us = 0;
    std::uint32_t mask_idx = kNoMask;  // echoed from the task
  };

  // Fixed-size accumulation buffers: tasks/completions for one ring are
  // gathered here and cross the ring as one batched cursor update
  // (SpscRing::try_push_batch). Flushed when full, on conflict-window
  // boundaries (scheduler) and on every sweep boundary (workers). The
  // rings themselves hold individual tasks (capacity = window + barrier
  // headroom), so the burst cap only sizes these stack buffers.
  struct TaskBatch {
    std::uint32_t n = 0;
    std::array<Task, static_cast<std::size_t>(kMaxTaskBurst)> t;
  };
  struct CompletionBatch {
    std::uint32_t n = 0;
    std::array<Completion, static_cast<std::size_t>(kMaxTaskBurst)> c;
  };

  struct TaggedDelivery {
    std::uint32_t seq;
    std::uint32_t copy;
    PortId outport;
    Packet packet;
  };

  struct WorkerCtx {
    std::vector<TaggedDelivery> deliveries;
    std::vector<std::uint64_t> instr;   // per switch
    std::vector<std::uint64_t> events;  // per switch
    std::uint64_t forwards = 0;
    netasm::DecodedProgram::Scratch scratch;
    // Free-running RTC classification outputs for one burst's lanes.
    netasm::DirectXfdd::ClassifyScratch cls_scratch;
    std::array<std::int32_t, static_cast<std::size_t>(kMaxTaskBurst)>
        cls_terminal{};
    std::array<std::uint16_t, static_cast<std::size_t>(kMaxTaskBurst)>
        cls_instr{};
    // Per-leaf write plan: (var, owner) in (state-rank, id) order. Keyed
    // by (epoch << 32 | leaf): leaf ids collide across epochs' stores.
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<StateVarId, int>>>
        plans;
    // (seq, epoch) per program run when EngineOptions::record_epochs.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> epoch_marks;
    // Outgoing batches under accumulation, one per destination worker,
    // plus the completion batch toward the scheduler.
    std::vector<TaskBatch> out_pending;
    CompletionBatch comp_pending;
    // Messages that found a full ring (capacity is sized so this stays
    // empty; kept as a correctness backstop).
    std::deque<std::pair<int, Task>> overflow;
    std::deque<Completion> comp_overflow;
    // Ring-overflow spill events (per task/completion spilled): the only
    // per-packet heap traffic a worker's dispatch path can cause, folded
    // into SimStats::steady_allocs.
    std::uint64_t spill_events = 0;
  };

  Network* net;
  std::unique_ptr<Network> owned;
  EngineOptions opts;
  int W = 1;
  int B = 1;  // effective tasks per ring message
  int guard_budget = 0;
  SimStats stats;

  // The switch→worker plan (built at construction from the RuleDelta's
  // compiler hint or a locally-derived one, frozen across epoch swaps)
  // and the hint it was scored with.
  std::shared_ptr<const ShardHint> hint;
  ShardPlan splan;
  // Free-running RTC burst trace for the current run (workers read it
  // through kBurst descriptors). Packed on the control path, before the
  // run's timer starts.
  BurstTrace rtc_storage;
  bool rtc_active = false;

  // Live-epoch slots (slot = id % kEpochSlots). The scheduler writes a
  // slot strictly before pushing any task of that epoch; the ring's
  // release/acquire pair publishes the pointer, and the drain-before-reuse
  // rule keeps a slot stable for as long as any task can read it.
  std::array<std::unique_ptr<EpochCtx>, kEpochSlots> epochs;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> marks;  // merged
  std::vector<std::unique_ptr<WorkerCtx>> ctxs;    // per worker
  std::vector<std::unique_ptr<SpscRing<Task>>> rings;  // (W+1) x W
  std::vector<std::unique_ptr<SpscRing<Completion>>> comps;  // per worker
  std::atomic<bool> stop{false};
  std::atomic<bool> abort{false};
  std::mutex err_mu;
  std::exception_ptr err;

  // apply_async queue (snapd's serve loop feeds this from another thread);
  // drained into the schedule at dispatch boundaries.
  std::mutex async_mu;
  std::vector<LiveEvent> async_events;
  std::atomic<bool> async_pending{false};

  // Per-thread telemetry buffers (profile / trace_sample modes):
  // obs_bufs[w] belongs to worker w (trace tid w+1), obs_bufs[W] to the
  // scheduler (tid 0). Created and armed on the control path before the
  // pool starts; empty when telemetry is off, so every hook reduces to a
  // null thread-local check.
  std::vector<std::unique_ptr<obs::ThreadBuf>> obs_bufs;
  // Drained span rings of the last run, ready for Chrome trace export.
  obs::TraceData trace_data;

  // Corrupted-mask arena for the corrupt_soundness_var test hook: one
  // entry per dispatched packet, allocated by the scheduler before the
  // ring push publishes the pointer (deque keeps element addresses stable
  // under push_back, so workers can read earlier entries race-free).
  std::deque<std::vector<StateVarId>> corrupt_masks;

  // LiveProgress source, maintained by the scheduler with relaxed stores.
  std::atomic<std::uint64_t> live_completed{0}, live_packets{0},
      live_events{0};
  std::atomic<std::uint32_t> live_epoch{0};
  std::atomic<std::uint64_t> live_started_ns{0};
  std::atomic<std::int64_t> live_last_latency_ns{-1};
  // Duration of the last finished run, for live() after live_running drops.
  // Kept atomic (instead of reading stats.seconds) because live() races
  // run_live's stats writes from another thread — the exact class of data
  // race the CI_TSAN lane exists to catch.
  std::atomic<std::uint64_t> live_seconds_ns{0};
  std::atomic<bool> live_running{false};

  explicit Impl(Network& n, EngineOptions o,
                std::shared_ptr<const ShardHint> h = nullptr)
      : net(&n), opts(std::move(o)), hint(std::move(h)) {
    SNAP_CHECK(net->topo().num_switches() <= 256,
               "traffic engine shards at most 256 switches");
    W = opts.workers;
    if (W <= 0) {
      W = static_cast<int>(std::thread::hardware_concurrency());
      if (W < 1) W = 1;
    }
    W = std::min(W, std::max(1, net->topo().num_switches()));
    if (opts.window < 16) opts.window = 16;
    B = std::clamp(opts.burst, 1, kMaxTaskBurst);
    build_plan();
  }

  void build_plan() {
    const int num_sw = net->topo().num_switches();
    if (!hint) {
      // No compiler hint rode in (legacy Network& construction): derive
      // one from the same inputs. Best-effort — a program psmap rejects
      // still yields co-occurrence edges, and total failure degrades to
      // an empty hint (the plan then spreads by weightless balance).
      try {
        hint = std::make_shared<const ShardHint>(
            build_shard_hint(net->store(), net->root(), net->topo(),
                             net->placement(), net->order()));
      } catch (...) {
        hint = std::make_shared<const ShardHint>();
      }
    }
    switch (opts.shard) {
      case ShardMode::kExplicit:
        SNAP_CHECK(static_cast<int>(opts.shard_map.size()) == num_sw,
                   "shard_map must hold one worker id per switch");
        for (int wk : opts.shard_map) {
          SNAP_CHECK(wk >= 0 && wk < W,
                     "shard_map names a worker outside [0, workers)");
        }
        splan.worker = opts.shard_map;
        splan.workers = W;
        splan.mode = "explicit";
        score_plan(*hint, splan);
        break;
      case ShardMode::kLocality:
        splan = plan_from_hint(*hint, W);
        break;
    }
    // Degenerate hint (num_switches mismatch): cover the tail round-robin
    // so worker_of stays total.
    if (static_cast<int>(splan.worker.size()) < num_sw) {
      std::size_t i = splan.worker.size();
      splan.worker.resize(static_cast<std::size_t>(num_sw));
      for (; i < splan.worker.size(); ++i) {
        splan.worker[i] = static_cast<int>(i) % W;
      }
    }
  }

  int worker_of(int sw) const {
    return splan.worker[static_cast<std::size_t>(sw)];
  }

  SpscRing<Task>& ring(int producer, int consumer) {
    return *rings[static_cast<std::size_t>(producer) *
                      static_cast<std::size_t>(W) +
                  static_cast<std::size_t>(consumer)];
  }

  Store& state_of(int sw) { return net->switch_at(sw).state(); }

  EpochCtx& epoch_of(std::uint32_t id) {
    return *epochs[id % kEpochSlots];
  }

  // Runs switch `sw`'s decoded program from `node` under epoch `e`. With
  // the soundness cross-check off, the per-state-instruction TLS hook is
  // compiled out of the selected instantiation, not just short-circuited.
  netasm::DecodedProgram::Outcome run_switch(EpochCtx& e, int sw,
                                             XfddId node, const Packet& pkt,
                                             WorkerCtx& ctx) {
    const std::size_t swi = static_cast<std::size_t>(sw);
    return e.programs[swi]->run(node, pkt, state_of(sw), ctx.scratch,
                                &ctx.instr[swi], opts.check_soundness);
  }

  // ---- worker side --------------------------------------------------------

  void flush_tasks(int me, int dest) {
    WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(me)];
    TaskBatch& b = ctx.out_pending[static_cast<std::size_t>(dest)];
    if (b.n == 0) return;
    // Older overflow for this ring must drain first to keep per-ring FIFO.
    if (!ctx.overflow.empty() ||
        !ring(me, dest).try_push_batch(b.t.data(), b.n)) {
      ctx.spill_events += b.n;
      for (std::uint32_t i = 0; i < b.n; ++i) {
        ctx.overflow.emplace_back(dest, std::move(b.t[i]));
      }
    }
    b.n = 0;
  }

  void flush_completions(int me) {
    WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(me)];
    CompletionBatch& b = ctx.comp_pending;
    if (b.n == 0) return;
    if (!ctx.comp_overflow.empty() ||
        !comps[static_cast<std::size_t>(me)]->try_push_batch(b.c.data(),
                                                             b.n)) {
      ctx.spill_events += b.n;
      for (std::uint32_t i = 0; i < b.n; ++i) {
        ctx.comp_overflow.push_back(b.c[i]);
      }
    }
    b.n = 0;
  }

  void send(int me, Task&& t) {
    int dest = worker_of(t.sw);
    WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(me)];
    ctx.forwards++;
    if (t.traced) obs::instant(obs::Cat::kPktRingHop, t.seq, t.sw, t.epoch);
    TaskBatch& b = ctx.out_pending[static_cast<std::size_t>(dest)];
    b.t[b.n++] = std::move(t);
    if (static_cast<int>(b.n) >= B) flush_tasks(me, dest);
  }

  void complete(int me, const Task& t) {
    auto us = (now_ns() - t.t_dispatch_ns) / 1000;
    Completion c{t.seq, t.epoch, t.hops,
                 static_cast<std::uint32_t>(
                     std::min<std::uint64_t>(us, 0xffffffffu)),
                 t.mask_idx};
    WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(me)];
    CompletionBatch& b = ctx.comp_pending;
    b.c[b.n++] = c;
    if (static_cast<int>(b.n) >= B) flush_completions(me);
  }

  // One forwarding walk toward `target`, mirroring the serial path's hop
  // and guard accounting exactly — against the task's epoch context.
  void walk(EpochCtx& e, Task& t, int target, const char* what) {
    while (t.sw != target) {
      int nxt = Network::next_hop_in(e.tables, e.routing, t.sw, target,
                                     t.inport, std::nullopt);
      e.count_hop(t.sw, nxt);
      ++t.hops;
      t.sw = nxt;
      SNAP_CHECK(--t.guard > 0, what);
    }
  }

  const std::vector<std::pair<StateVarId, int>>& write_plan(WorkerCtx& ctx,
                                                            EpochCtx& e,
                                                            XfddId leaf) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(e.id) << 32) | leaf;
    auto it = ctx.plans.find(key);
    if (it != ctx.plans.end()) return it->second;
    std::vector<std::pair<StateVarId, int>> plan;
    for (const auto& [var, ops] :
         e.store->leaf_actions(leaf).state_programs()) {
      int owner = e.placement.at(var);
      SNAP_CHECK(owner >= 0, "leaf writes an unplaced state variable");
      plan.emplace_back(var, owner);
    }
    const TestOrder& order = e.order;
    std::sort(plan.begin(), plan.end(), [&](const auto& a, const auto& b) {
      int ra = order.state_rank(a.first), rb = order.state_rank(b.first);
      return ra != rb ? ra < rb : a.first < b.first;
    });
    return ctx.plans.emplace(key, std::move(plan)).first->second;
  }

  // Phase 3: apply field mods per surviving copy, walk to egress, record
  // the delivery (serial inject's last loop, with epoch-local counters).
  void egress_and_complete(int me, EpochCtx& e, Task& t) {
    // Stage clock: everything since the last mark was the program walk.
    obs::stage_mark(obs::Cat::kExec);
    WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(me)];
    const ActionSet& actions = e.store->leaf_actions(t.node);
    const FieldId outport_f = fields::outport();
    std::uint32_t copy_idx = 0;
    for (const ActionSeq& seq : actions.seqs()) {
      const std::uint32_t my_copy = copy_idx++;
      if (seq.is_drop()) continue;
      Packet copy = t.pkt;
      for (const auto& [f, val] : seq.mods()) copy.set(f, val);
      auto v = copy.get(outport_f);
      if (!v) continue;  // no egress assigned: dropped at the edge
      auto egress = static_cast<PortId>(*v);
      int esw;
      try {
        esw = e.topo.port_switch(egress);
      } catch (const InternalError&) {
        continue;  // egress port does not exist: dropped
      }
      int cur = t.sw;
      int copy_guard = guard_budget;
      while (cur != esw) {
        int nxt = Network::next_hop_in(e.tables, e.routing, cur, esw,
                                       t.inport, egress);
        e.count_hop(cur, nxt);
        ++t.hops;
        cur = nxt;
        SNAP_CHECK(--copy_guard > 0, "packet walked too long to egress");
      }
      ctx.deliveries.push_back({t.seq, my_copy, egress, std::move(copy)});
    }
    complete(me, t);
    obs::stage_mark(obs::Cat::kEgress);
  }

  // Runs a task as far as it can on this shard, then forwards or completes.
  void process(int me, Task& t) {
    WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(me)];
    EpochCtx& e = epoch_of(t.epoch);
    if (t.phase == Task::Phase::kBurst) {
      run_rtc_burst(me, t);
      return;
    }
    if (t.phase == Task::Phase::kMigrate) {
      // Scheduler-ordered state-migration barrier: prune/clear this
      // switch's tables for the new epoch's placement. Ring FIFO put this
      // after every old-epoch dispatch to this worker; the deterministic
      // scheduler additionally drained M-conflicting in-flight packets
      // before sending it.
      net->migrate_switch_state(t.sw, e.placement, t.migrate_clear);
      obs::stage_mark(obs::Cat::kEpochSwap);
      complete(me, t);
      return;
    }
    // Sampled packet tracing: one kPktSegment span per (worker, visit) of
    // a traced packet's walk, closed just before the task leaves this
    // shard (forward or completion).
    const bool traced = t.traced && obs::tracing();
    const std::uint64_t seg_t0 = traced ? obs::tick_ns() : 0;
    const std::uint64_t seg_sw = static_cast<std::uint64_t>(t.sw);
    auto seg_end = [&](const Task& tt) {
      if (traced) {
        obs::record(obs::Cat::kPktSegment, seg_t0, obs::tick_ns(), tt.seq,
                    seg_sw, tt.epoch, tt.hops);
      }
    };
    // Arm the conflict-mask soundness cross-check for this walk segment:
    // every state access run_switch performs below must lie inside the
    // mask the scheduler dispatched this packet under. Re-armed on every
    // shard the walk visits (the task carries the mask view).
    std::optional<SoundnessScope> sound;
    if (t.soundness) sound.emplace(t.mask_vars, t.mask_n, t.seq);
    for (;;) {
      const std::size_t swi = static_cast<std::size_t>(t.sw);
      if (opts.record_epochs) ctx.epoch_marks.emplace_back(t.seq, e.id);
      if (t.phase == Task::Phase::kResolve) {
        auto oc = run_switch(e, t.sw, t.node, t.pkt, ctx);
        ++ctx.events[swi];
        if (oc.kind == netasm::DecodedProgram::Outcome::kStuck) {
          SNAP_CHECK(--t.guard > 0,
                     "packet walked too long while resolving state");
          int target = e.placement.at(oc.stuck_var);
          SNAP_CHECK(target >= 0, "stuck on an unplaced state variable");
          t.node = oc.node;
          walk(e, t, target, "packet walked too long while resolving state");
          if (worker_of(t.sw) == me) continue;
          seg_end(t);
          send(me, std::move(t));
          return;
        }
        // Leaf resolved: this shard's switch applied its local writes
        // during run(); enter the distributed-write phase.
        t.phase = Task::Phase::kWrite;
        t.node = oc.node;
        t.applied.set(t.sw);
      } else {
        // Arrived at a write owner: apply its local leaf writes.
        auto oc = run_switch(e, t.sw, t.node, t.pkt, ctx);
        ++ctx.events[swi];
        // Per write visit (hot): debug-only — a divergence here produces a
        // wrong leaf id, not an out-of-bounds access.
        SNAP_DCHECK(oc.kind == netasm::DecodedProgram::Outcome::kLeaf &&
                        oc.node == t.node,
                    "leaf resume diverged");
        (void)oc;
        t.applied.set(t.sw);
      }
      // Next unvisited owner in dependency order (serial phase 2).
      int next_owner = -1;
      for (const auto& [var, owner] : write_plan(ctx, e, t.node)) {
        if (!t.applied.test(owner)) {
          next_owner = owner;
          break;
        }
      }
      if (next_owner < 0) {
        egress_and_complete(me, e, t);
        seg_end(t);
        return;
      }
      // Each owner walk gets a fresh budget — the serial path budgets its
      // phase-2 walks per owner, so a long multi-owner write plan must not
      // exhaust the resolve budget and trip "walked too long" spuriously.
      t.guard = guard_budget;
      walk(e, t, next_owner, "packet walked too long while writing state");
      if (worker_of(t.sw) != me) {
        seg_end(t);
        send(me, std::move(t));
        return;
      }
      // Stays on this shard: loop into the kWrite arm.
    }
  }

  // Free-running RTC: classify this worker's lanes of one SoA burst with
  // the network-mode kernel, then drain each lane to completion through
  // the normal per-switch walk. The kernel counts the field prefix
  // (credited to the ingress switch) and yields the first non-field node;
  // the walk resumes there — at a leaf, a locally-placed state test, or
  // (foreign state) via the same escape-to-owner hop the per-packet stuck
  // path takes.
  void run_rtc_burst(int me, const Task& t) {
    WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(me)];
    EpochCtx& e = epoch_of(t.epoch);
    const PacketBurst& b =
        rtc_storage.bursts[static_cast<std::size_t>(t.burst_idx)];
    std::uint64_t lanes = 0;
    std::array<int, static_cast<std::size_t>(kMaxTaskBurst)> isw{};
    for (int l = 0; l < b.n; ++l) {
      const int s = e.topo.port_switch(b.inport[l]);
      isw[static_cast<std::size_t>(l)] = s;
      if (worker_of(s) == me) lanes |= 1ull << l;
    }
    SNAP_DCHECK(lanes != 0, "burst descriptor sent to a laneless worker");
    e.net_direct.classify_burst(e.rtc_plan, {b.vals, b.present}, lanes,
                                ctx.cls_terminal.data(),
                                ctx.cls_instr.data(), ctx.cls_scratch);
    obs::stage_mark(obs::Cat::kClassify);
    const std::uint32_t tsample = opts.trace_sample;
    for (int l = 0; l < b.n; ++l) {
      if (!(lanes >> l & 1)) continue;
      const std::size_t li = static_cast<std::size_t>(l);
      const std::size_t seq = static_cast<std::size_t>(b.base_seq) + li;
      Task lt;
      lt.phase = Task::Phase::kResolve;
      lt.seq = static_cast<std::uint32_t>(seq);
      lt.epoch = t.epoch;
      lt.sw = isw[li];
      lt.node = e.net_direct.orig_id(ctx.cls_terminal[li]);
      lt.guard = t.guard;
      lt.inport = b.inport[li];
      lt.t_dispatch_ns = t.t_dispatch_ns;
      lt.traced = tsample != 0 && seq % tsample == 0;
      lt.pkt = rtc_storage.packet_at(seq);
      ctx.instr[static_cast<std::size_t>(lt.sw)] += ctx.cls_instr[li];
      const netasm::DirectXfdd::DNode& dn =
          e.net_direct.nodes()[static_cast<std::size_t>(ctx.cls_terminal[li])];
      if (dn.kind == netasm::DirectXfdd::DNode::Kind::kState) {
        const int owner = e.placement.at(dn.var);
        SNAP_CHECK(owner >= 0, "stuck on an unplaced state variable");
        if (owner != lt.sw) {
          // The classify prefix was this lane's ingress program run; it
          // escapes to the variable's owner exactly as the per-packet
          // stuck path would.
          ++ctx.events[static_cast<std::size_t>(lt.sw)];
          if (opts.record_epochs) ctx.epoch_marks.emplace_back(lt.seq, e.id);
          SNAP_CHECK(--lt.guard > 0,
                     "packet walked too long while resolving state");
          walk(e, lt, owner, "packet walked too long while resolving state");
          if (worker_of(lt.sw) != me) {
            send(me, std::move(lt));
            continue;  // crossed shards: normal task machinery takes over
          }
        }
      }
      process(me, lt);
      if (abort.load(std::memory_order_relaxed)) return;
    }
  }

  void flush_overflow(int me) {
    WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(me)];
    while (!ctx.overflow.empty()) {
      auto& [dest, task] = ctx.overflow.front();
      if (!ring(me, dest).try_push(std::move(task))) return;
      ctx.overflow.pop_front();
    }
    while (!ctx.comp_overflow.empty()) {
      Completion c = ctx.comp_overflow.front();
      if (!comps[static_cast<std::size_t>(me)]->try_push(std::move(c))) {
        return;
      }
      ctx.comp_overflow.pop_front();
    }
  }

  void worker_loop(int me) {
    // Bind this worker's telemetry buffer (null = every hook disarmed)
    // for exactly the loop's lifetime, and stamp its wall clock on exit
    // so the cycle table sees the full loop duration.
    obs::ThreadBuf* buf = me < static_cast<int>(obs_bufs.size())
                              ? obs_bufs[static_cast<std::size_t>(me)].get()
                              : nullptr;
    obs::BindThread bind(buf);
    worker_body(me);
    if (buf) buf->finish();
  }

  void worker_body(int me) {
    try {
      std::array<Task, static_cast<std::size_t>(kMaxTaskBurst)> in;
      for (;;) {
        if (abort.load(std::memory_order_relaxed)) return;
        flush_overflow(me);
        bool did = false;
        for (int p = 0; p <= W; ++p) {
          std::size_t k;
          while ((k = ring(p, me).try_pop_batch(in.data(), in.size())) >
                 0) {
            did = true;
            // Stage clock: polling + the successful batched pop.
            obs::stage_mark(obs::Cat::kRingPop);
            for (std::size_t i = 0; i < k; ++i) {
              process(me, in[i]);
              if (abort.load(std::memory_order_relaxed)) return;
            }
            // Whatever process() did not attribute itself (forwarded
            // walks, batching) is execution.
            obs::stage_mark(obs::Cat::kExec);
          }
        }
        // Sweep boundary: partial batches must not strand in-flight
        // packets (or completions the conflict gate is waiting on).
        for (int d = 0; d < W; ++d) flush_tasks(me, d);
        flush_completions(me);
        if (did) {
          obs::stage_mark(obs::Cat::kRingPush);
        } else {
          if (stop.load(std::memory_order_acquire)) return;
          std::this_thread::yield();
          obs::stage_mark(obs::Cat::kIdle);
        }
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!err) err = std::current_exception();
      }
      abort.store(true, std::memory_order_release);
    }
  }

  // ---- scheduler side -----------------------------------------------------

  // Snapshots one epoch's full deployment context. Per-switch programs are
  // shared from the Network's switches (apply_rules already installed and
  // decoded the delta's), so the caller must finish patching the Network
  // first.
  std::unique_ptr<EpochCtx> build_epoch(
      std::uint32_t id, std::shared_ptr<const XfddStore> owner,
      const XfddStore* store, XfddId root, const Topology& topo,
      const Placement& pl, const Routing& routing, const TestOrder& order) {
    auto e = std::make_unique<EpochCtx>();
    e->id = id;
    e->store_owner = std::move(owner);
    e->store = store;
    e->root = root;
    e->topo = topo;
    e->placement = pl;
    e->routing = routing;
    e->tables = RoutingTables::build(topo, routing);
    e->order = order;
    const int num_sw = net->topo().num_switches();
    e->programs.reserve(static_cast<std::size_t>(num_sw));
    for (int sw = 0; sw < num_sw; ++sw) {
      e->programs.push_back(net->switch_at(sw).decoded());
    }
    if (opts.deterministic) {
      e->conflict = std::make_unique<ConflictCache>(*e->store, e->root);
    }
    if (rtc_active) {
      e->net_direct = netasm::DirectXfdd::build_network(*e->store, e->root);
      e->rtc_plan = e->net_direct.prepare_classify(rtc_storage.fields);
    }
    e->num_links = topo.links().size();
    e->link_packets =
        std::make_unique<std::atomic<std::uint64_t>[]>(e->num_links);
    for (std::size_t i = 0; i < e->num_links; ++i) {
      e->link_packets[i].store(0, std::memory_order_relaxed);
    }
    return e;
  }

  // Folds an epoch's counters into the Network before its slot is reused
  // (or at run end). Link counts are exact when the link survived into the
  // current topology and dropped otherwise (a failure removed it).
  void retire_epoch(EpochCtx& e) {
    net->add_hops(e.hops.load(std::memory_order_relaxed));
    const auto& links = e.topo.links();
    for (std::size_t i = 0; i < e.num_links; ++i) {
      auto c = e.link_packets[i].load(std::memory_order_relaxed);
      if (c) net->add_link_packets(links[i].src, links[i].dst, c);
    }
    if (e.conflict) {
      stats.conflict_hits += e.conflict->hits();
      stats.conflict_misses += e.conflict->misses();
    }
  }

  std::vector<Network::Delivery> run_live(const Workload& wl,
                                          std::vector<LiveEvent> schedule) {
    const std::size_t N = wl.packets.size();
    const int num_sw = net->topo().num_switches();
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const LiveEvent& a, const LiveEvent& b) {
                       return a.at_seq < b.at_seq;
                     });
    stats = SimStats{};
    stats.packets = N;
    stats.workers = W;
    stats.burst = B;
    stats.deterministic = opts.deterministic;
    stats.shard_mode = splan.mode;
    stats.shard_cross_edges = splan.cross_edges;
    stats.shard_total_edges = splan.total_edges;
    stats.per_switch_instructions.assign(
        static_cast<std::size_t>(num_sw), 0);
    stats.per_switch_events.assign(static_cast<std::size_t>(num_sw), 0);
    stats.hop_histogram.assign(65, 0);
    stats.latency_histogram.assign(32, 0);
    stats.ring_hwm.assign(static_cast<std::size_t>(W), 0);
    stats.comp_ring_hwm.assign(static_cast<std::size_t>(W), 0);
    guard_budget = num_sw * 4 + 16;
    marks.clear();
    corrupt_masks.clear();
    live_packets.store(N, std::memory_order_relaxed);
    live_completed.store(0, std::memory_order_relaxed);
    live_events.store(0, std::memory_order_relaxed);
    live_epoch.store(0, std::memory_order_relaxed);
    live_last_latency_ns.store(-1, std::memory_order_relaxed);
    live_started_ns.store(now_ns(), std::memory_order_relaxed);
    live_running.store(true, std::memory_order_relaxed);
    if (N == 0) {
      // Nothing in flight: apply the schedule quiesced.
      for (LiveEvent& ev : schedule) {
        net->apply(ev.delta);
        LiveEventStats es;
        es.label = ev.label;
        es.at_seq = ev.at_seq;
        es.epoch = ++stats.epochs - 1;
        stats.events.push_back(std::move(es));
      }
      live_seconds_ns.store(0, std::memory_order_relaxed);
      live_running.store(false, std::memory_order_release);
      return {};
    }
    SNAP_CHECK(N < (1ull << 31),
               "workload exceeds 31-bit sequence space (the top bit tags "
               "control tasks)");

    // Free-running run-to-completion mode: with no conflict gate and no
    // live events pending at start, the scheduler pre-slices the workload
    // into SoA bursts and hands each worker one burst *descriptor* per
    // owned ingress switch — the worker classifies its lanes vectorized
    // and walks each packet to completion locally. Async events still
    // work: they merge at burst boundaries. A free-running run with a
    // live schedule dispatches per packet instead.
    rtc_active = !opts.deterministic && schedule.empty();
    if (rtc_active) {
      rtc_storage = make_bursts(
          wl, std::min<int>(kMaxTaskBurst,
                            static_cast<int>(std::min<std::size_t>(
                                opts.window, kMaxTaskBurst))));
    }

    // Epoch 0 snapshots the network as deployed.
    for (auto& s : epochs) s.reset();
    epochs[0] =
        build_epoch(0, net->shared_store(), &net->store(), net->root(),
                    net->topo(), net->placement(), net->routing(),
                    net->order());
    EpochCtx* cur = epochs[0].get();
    stats.epoch_slot_hwm = 1;

    // Fresh rings and worker contexts. Task-ring capacity is the window
    // (at most `window` packets in flight, each owning at most one slot)
    // plus headroom for one wave of migration barriers (one per switch,
    // bounded by the 256-switch shard limit), so batched pushes always
    // find room.
    const std::size_t ring_cap = opts.window + 256;
    rings.clear();
    for (int p = 0; p <= W; ++p) {
      for (int c = 0; c < W; ++c) {
        (void)p;
        (void)c;
        rings.push_back(std::make_unique<SpscRing<Task>>(ring_cap));
      }
    }
    comps.clear();
    ctxs.clear();
    for (int w = 0; w < W; ++w) {
      comps.push_back(std::make_unique<SpscRing<Completion>>(ring_cap));
      auto ctx = std::make_unique<WorkerCtx>();
      ctx->instr.assign(static_cast<std::size_t>(num_sw), 0);
      ctx->events.assign(static_cast<std::size_t>(num_sw), 0);
      ctx->out_pending.assign(static_cast<std::size_t>(W), TaskBatch{});
      ctxs.push_back(std::move(ctx));
    }
    stop.store(false);
    abort.store(false);
    err = nullptr;

    // Telemetry buffers (one per worker + the scheduler), created and
    // armed before any engine thread runs. The single ring allocation per
    // thread happens here, on the control path, so the hot path stays
    // allocation-free with telemetry on.
    const std::uint32_t tsample = opts.trace_sample;
    const bool obs_on = opts.profile || tsample > 0;
    obs_bufs.clear();
    trace_data = obs::TraceData{};
    if (obs_on) {
      for (int w = 0; w < W; ++w) {
        obs_bufs.push_back(std::make_unique<obs::ThreadBuf>(
            "worker" + std::to_string(w),
            static_cast<std::uint32_t>(w) + 1));
      }
      obs_bufs.push_back(std::make_unique<obs::ThreadBuf>("scheduler", 0));
      for (auto& b : obs_bufs) b->arm(tsample > 0, opts.profile);
    }
    obs::ThreadBuf* sched_buf =
        obs_on ? obs_bufs[static_cast<std::size_t>(W)].get() : nullptr;
    obs::BindThread sched_bind(sched_buf);

    // The workers live on a thread pool; each loop occupies one pool
    // thread until the scheduler raises `stop`.
    ThreadPool pool(W);
    std::vector<std::future<void>> loops;
    loops.reserve(static_cast<std::size_t>(W));
    for (int w = 0; w < W; ++w) {
      loops.push_back(pool.submit([this, w] { worker_loop(w); }));
    }

    // Conflict bookkeeping (deterministic mode): how many in-flight
    // packets touch each state variable. The gate table spans epochs —
    // variable ids are global — so cross-epoch conflicts (and the
    // migration hold below) serialize in sequence order exactly like
    // same-epoch ones. Grown, never shrunk, as epochs introduce larger
    // ids; out-of-range ids fail loudly instead of silently skipping the
    // gate.
    std::vector<std::uint32_t> active;
    // Confinement worker of the packets currently holding each variable
    // (valid while active[v] > 0; -1 = some holder is unconfined).
    std::vector<int> conf;
    auto grow_gate = [&](std::size_t nv) {
      if (nv > active.size()) {
        active.resize(nv, 0);
        conf.resize(nv, -1);
      }
    };
    if (opts.deterministic) {
      grow_gate(std::max<std::size_t>(
          state_var_count(),
          static_cast<std::size_t>(cur->conflict->max_var_id()) + 1));
    }
    // In-flight mask handles ride in the tasks themselves (Task::mask_idx,
    // echoed by Completion) — no scheduler-side per-packet map.

    // A packet whose ingress worker also owns every variable in its mask
    // is *confined*: its whole walk (resolve targets, write owners, inline
    // egress) happens on that one worker, so it can be dispatched behind a
    // conflicting confined predecessor — the ring's FIFO already executes
    // them in sequence order — instead of stalling the window for a full
    // scheduler round-trip. With one worker every packet is confined and
    // deterministic mode pipelines gate-free. EpochCtx::mask_worker
    // memoizes, per conflict-mask index, the single worker owning all of
    // the mask's variables (-1 when they span workers or are unplaced,
    // -2 unknown). Cross-epoch sharing of conf[v] is sound: a variable
    // whose owner changed is in the migration set, so its old holders
    // drained before the swap.
    auto worker_of_mask = [&](EpochCtx& e, std::uint32_t midx) {
      if (midx >= e.mask_worker.size()) e.mask_worker.resize(midx + 1, -2);
      int& mw = e.mask_worker[midx];
      if (mw == -2) {
        mw = -1;
        bool first = true;
        for (StateVarId v : e.conflict->mask(midx)) {
          int owner = e.placement.at(v);
          if (owner < 0) {
            mw = -1;
            break;
          }
          int w = worker_of(owner);
          if (first) {
            mw = w;
            first = false;
          } else if (mw != w) {
            mw = -1;
            break;
          }
        }
      }
      return mw;
    };

    // Scheduler-side dispatch batches, one per destination worker.
    std::vector<TaskBatch> sched_pending(static_cast<std::size_t>(W));
    auto sched_flush = [&](int dest) {
      TaskBatch& b = sched_pending[static_cast<std::size_t>(dest)];
      if (b.n == 0) return;
      if (opts.profile) {
        // Ring-occupancy high-water mark, sampled at flush boundaries
        // (size() is the producer's own conservative view).
        std::uint64_t occ = ring(W, dest).size();
        std::uint64_t& hwm = stats.ring_hwm[static_cast<std::size_t>(dest)];
        if (occ > hwm) hwm = occ;
      }
      bool was_full = false;
      while (!ring(W, dest).try_push_batch(b.t.data(), b.n)) {
        was_full = true;
        std::this_thread::yield();  // unreachable with the sized capacity
      }
      if (was_full) obs::stage_mark(obs::Cat::kRingFull);
      b.n = 0;
      // Batch hand-off (copy into the SPSC ring) is burst-assembly time,
      // split from the admission sweep it interrupts.
      obs::stage_mark(obs::Cat::kBurstAssemble);
    };
    auto sched_send = [&](Task&& t) {
      int dest = worker_of(t.sw);
      TaskBatch& b = sched_pending[static_cast<std::size_t>(dest)];
      b.t[b.n++] = std::move(t);
      if (static_cast<int>(b.n) >= B) sched_flush(dest);
    };

    // Live-event bookkeeping. inflight_slot counts in-flight packets per
    // epoch slot (the drain-before-reuse rule); pending_migrations counts
    // outstanding kMigrate barriers of the latest event, whose migration
    // set is held in the gate via migration_hold until they all complete.
    std::array<std::uint64_t, kEpochSlots> inflight_slot{};
    std::size_t pending_migrations = 0;
    std::vector<StateVarId> migration_hold;
    std::uint32_t ctrl_seq = 0;
    std::vector<double> event_due_s;  // aligned with stats.events
    // Epochs whose first packet completion is still to be stamped.
    std::unordered_map<std::uint32_t, std::size_t> awaiting_first;

    Timer timer;
    std::size_t next = 0, completed = 0, inflight = 0;
    std::size_t ei = 0;
    // Conflict-mask handles for the next burst of the sequence, resolved in
    // one bulk lookup so the flow front-cache stays hot. Epoch-relative, so
    // an applied event empties the buffer.
    std::vector<std::uint32_t> masks(static_cast<std::size_t>(B));
    std::size_t masks_begin = 0, masks_end = 0;
    // RTC mode cursors: next burst to hand out, and the per-worker first
    // owned ingress switch of the burst being assembled.
    std::size_t bi = 0;
    std::vector<int> rtc_owner_sw(static_cast<std::size_t>(W), -1);
    // The conflict-mask handle of the window head `next`, refilling the
    // buffer when the head runs past it. A refill stops at the next event's
    // boundary: packets behind it resolve against the new epoch's cache,
    // so every packet is looked up exactly once.
    auto head_mask = [&]() -> std::uint32_t {
      if (next >= masks_end) {
        obs::stage_mark(obs::Cat::kWindowAdmit);
        std::size_t upto = std::min(N, next + static_cast<std::size_t>(B));
        if (ei < schedule.size() && schedule[ei].at_seq > next) {
          upto = std::min(upto, schedule[ei].at_seq);
        }
        cur->conflict->mask_indices(&wl.packets[next], upto - next,
                                    masks.data());
        masks_begin = next;
        masks_end = upto;
        obs::stage_mark(obs::Cat::kMaskResolve);
      }
      return masks[next - masks_begin];
    };
    double due_s = -1;  // when the pending event's boundary was reached
    std::array<Completion, static_cast<std::size_t>(kMaxTaskBurst)> cbuf;
    // Stall attribution: why did the last dispatch sweep stop? Drives the
    // scheduler's kGateWait-vs-kDrain stage split, and (packet tracing)
    // the kPktGateWait record stamped when a sampled blocked head is
    // finally dispatched.
    bool head_blocked = false;
    std::uint64_t blocked_seq = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t blocked_t0 = 0;

    auto release_hold = [&] {
      for (StateVarId v : migration_hold) --active[v];
      migration_hold.clear();
    };

    auto drain_completions = [&]() -> bool {
      bool progress = false;
      for (int w = 0; w < W; ++w) {
        if (opts.profile) {
          std::uint64_t occ = comps[static_cast<std::size_t>(w)]->size();
          std::uint64_t& hwm =
              stats.comp_ring_hwm[static_cast<std::size_t>(w)];
          if (occ > hwm) hwm = occ;
        }
        std::size_t k;
        while ((k = comps[static_cast<std::size_t>(w)]->try_pop_batch(
                    cbuf.data(), cbuf.size())) > 0) {
          progress = true;
          for (std::size_t i = 0; i < k; ++i) {
            const Completion& c = cbuf[i];
            if (c.seq & kCtrlSeq) {
              // A migration barrier finished on its owner's worker.
              SNAP_CHECK(pending_migrations > 0,
                         "unexpected control completion");
              if (--pending_migrations == 0) release_hold();
              continue;
            }
            --inflight;
            --inflight_slot[c.epoch % kEpochSlots];
            if (tsample && c.seq % tsample == 0) {
              obs::instant(obs::Cat::kPktComplete, c.seq, 0, c.epoch,
                           c.hops);
            }
            // Stats fold on arrival: hop sums and histograms commute, so
            // the order completions arrive in does not show.
            stats.hops += c.hops;
            ++stats.hop_histogram[std::min<std::uint32_t>(c.hops, 64)];
            std::uint32_t bucket = 0;
            while ((1u << bucket) <= c.latency_us && bucket < 31) ++bucket;
            ++stats.latency_histogram[bucket];
            ++completed;
            auto af = awaiting_first.find(c.epoch);
            if (af != awaiting_first.end()) {
              double lat = timer.seconds() - event_due_s[af->second];
              stats.events[af->second].first_packet_seconds = lat;
              live_last_latency_ns.store(
                  static_cast<std::int64_t>(lat * 1e9),
                  std::memory_order_relaxed);
              awaiting_first.erase(af);
            }
            if (opts.deterministic && c.mask_idx != kNoMask) {
              EpochCtx& me = epoch_of(c.epoch);
              for (StateVarId v : me.conflict->mask(c.mask_idx)) {
                --active[v];
              }
            }
          }
        }
      }
      live_completed.store(completed, std::memory_order_relaxed);
      return progress;
    };

    // Applies the pending event if its preconditions hold; returns false
    // (with no side effects) while the caller must keep draining
    // completions. The swap sequence: wait out the previous migration
    // wave and the slot's former occupant, (deterministic) wait until no
    // in-flight conflict mask intersects the migration set M, patch the
    // Network's rules half, snapshot the new epoch, hold M, and emit one
    // kMigrate barrier per affected switch — ring-FIFO after every
    // old-epoch dispatch, before every new-epoch one.
    auto try_apply_event = [&](LiveEvent& ev) -> bool {
      if (pending_migrations > 0) {
        ++stats.epoch_stall_migration;
        return false;
      }
      const std::uint32_t id = cur->id + 1;
      const std::uint32_t slot = id % kEpochSlots;
      if (epochs[slot] && inflight_slot[slot] > 0) {
        ++stats.epoch_stall_slot;
        return false;
      }
      const RuleDelta& d = ev.delta;
      SNAP_CHECK(d.store != nullptr, "live event carries no xFDD store");
      SNAP_CHECK(d.topo.num_switches() == num_sw,
                 "live events must not renumber or grow the switch set");
      // Migration set M (placement-changed variables plus everything
      // touching a removed/restored switch) and the affected switches.
      std::set<int> clear_sw(d.removed.begin(), d.removed.end());
      clear_sw.insert(d.added.begin(), d.added.end());
      std::set<int> prune_sw;
      std::set<StateVarId> mset;
      for (const auto& [v, oldsw] : cur->placement.switch_of) {
        int newsw = d.placement.at(v);
        if (oldsw != newsw || clear_sw.count(oldsw)) {
          mset.insert(v);
          if (oldsw != newsw && oldsw >= 0 && !clear_sw.count(oldsw)) {
            prune_sw.insert(oldsw);
          }
        }
      }
      for (const auto& [v, newsw] : d.placement.switch_of) {
        if (cur->placement.at(v) != newsw ||
            (newsw >= 0 && clear_sw.count(newsw))) {
          mset.insert(v);
        }
      }
      if (opts.deterministic) {
        for (StateVarId v : mset) {
          if (v < active.size() && active[v] > 0) {
            ++stats.epoch_stall_mask;
            return false;
          }
        }
      }
      // Point of no return: patch the Network's rules. Workers never read
      // the fields this touches (their context is the epoch snapshot);
      // the per-switch state tables are migrated by the barriers below.
      net->apply_rules(d);
      if (epochs[slot]) retire_epoch(*epochs[slot]);
      auto e = build_epoch(id, d.store, d.store.get(), d.root, d.topo,
                           d.placement, d.routing, d.order);
      // The switch→worker plan is frozen for the run (workers own state
      // tables), so re-validate it against the new epoch's conflict
      // structure and account the drift: how many more cross-worker
      // conflict edges the frozen plan cuts than a fresh locality plan
      // would. Observability only — never throws, never re-shards.
      if (splan.mode == "locality") {
        try {
          ShardHint nh = build_shard_hint(*e->store, e->root, e->topo,
                                          e->placement, e->order);
          ShardPlan frozen = splan;
          score_plan(nh, frozen);
          ShardPlan ideal = plan_from_hint(nh, W);
          if (frozen.cross_edges > ideal.cross_edges) {
            stats.shard_drift += frozen.cross_edges - ideal.cross_edges;
          }
          stats.shard_cross_edges = frozen.cross_edges;
          stats.shard_total_edges = frozen.total_edges;
        } catch (...) {
          // Hint construction is best-effort under live updates.
        }
      }
      if (opts.deterministic) {
        std::size_t nv =
            static_cast<std::size_t>(e->conflict->max_var_id()) + 1;
        for (StateVarId v : mset) {
          nv = std::max(nv, static_cast<std::size_t>(v) + 1);
        }
        grow_gate(nv);
        // Hold M like an unconfined pseudo-packet until every barrier
        // completes: new-epoch packets that could observe migrated state
        // queue behind the migration.
        migration_hold.assign(mset.begin(), mset.end());
        for (StateVarId v : migration_hold) {
          ++active[v];
          conf[v] = -1;
        }
      }
      // Publish the slot before any task referencing the epoch exists;
      // the ring push below is the release edge workers acquire.
      epochs[slot] = std::move(e);
      cur = epochs[slot].get();
      std::uint32_t live_slots = 0;
      for (const auto& s : epochs) {
        if (s) ++live_slots;
      }
      if (live_slots > stats.epoch_slot_hwm) {
        stats.epoch_slot_hwm = live_slots;
      }
      std::size_t barriers = 0;
      auto send_barrier = [&](int s, bool clear) {
        Task t;
        t.phase = Task::Phase::kMigrate;
        t.seq = kCtrlSeq | ctrl_seq++;
        t.epoch = id;
        t.sw = s;
        t.migrate_clear = clear;
        t.t_dispatch_ns = now_ns();
        ++pending_migrations;
        ++barriers;
        sched_send(std::move(t));
      };
      for (int s : clear_sw) send_barrier(s, true);
      for (int s : prune_sw) send_barrier(s, false);
      if (pending_migrations == 0) release_hold();
      masks_end = 0;  // mask handles are epoch-relative
      stats.epochs = id + 1;
      LiveEventStats es;
      es.label = ev.label;
      es.at_seq = ev.at_seq;
      es.epoch = id;
      es.migrated_switches = barriers;
      es.migrated_vars = mset.size();
      es.swap_seconds = timer.seconds() - due_s;
      event_due_s.push_back(due_s);
      awaiting_first.emplace(id, stats.events.size());
      stats.events.push_back(std::move(es));
      live_events.store(stats.events.size(), std::memory_order_relaxed);
      live_epoch.store(id, std::memory_order_relaxed);
      return true;
    };

    // Adopt apply_async deltas at the next dispatch boundary.
    auto merge_async = [&] {
      if (!async_pending.load(std::memory_order_relaxed)) return;
      std::vector<LiveEvent> got;
      {
        std::lock_guard<std::mutex> lk(async_mu);
        got.swap(async_events);
        async_pending.store(false, std::memory_order_relaxed);
      }
      for (LiveEvent& ev : got) {
        // Land at the window head: everything before it already belongs
        // to the current epoch.
        ev.at_seq = next;
        schedule.insert(
            std::upper_bound(schedule.begin() +
                                 static_cast<std::ptrdiff_t>(ei),
                             schedule.end(), ev,
                             [](const LiveEvent& a, const LiveEvent& b) {
                               return a.at_seq < b.at_seq;
                             }),
            std::move(ev));
      }
    };

    // A scheduler-side throw (e.g. a workload inport the deployed topology
    // does not attach) must release the worker loops before unwinding —
    // ThreadPool's destructor joins them, and they only exit on stop/abort.
    try {
    while (completed < N && !abort.load(std::memory_order_acquire)) {
      bool progress = false;
      merge_async();
      head_blocked = false;
      if (rtc_active) {
        // Free-running RTC dispatch: one burst descriptor per owning
        // worker, no per-packet scheduler work. Async events merged above
        // land at `next` (a burst boundary) and swap here.
        while (bi < rtc_storage.bursts.size()) {
          if (ei < schedule.size() && schedule[ei].at_seq <= next) {
            if (due_s < 0) due_s = timer.seconds();
            bool applied = try_apply_event(schedule[ei]);
            obs::stage_mark(obs::Cat::kEpochSwap);
            if (!applied) break;  // drain first
            ++ei;
            due_s = -1;
            progress = true;
            continue;
          }
          const PacketBurst& b = rtc_storage.bursts[bi];
          const std::size_t n = static_cast<std::size_t>(b.n);
          if (inflight + n > opts.window) break;
          std::fill(rtc_owner_sw.begin(), rtc_owner_sw.end(), -1);
          for (std::size_t l = 0; l < n; ++l) {
            const int isw = cur->topo.port_switch(b.inport[l]);
            const std::size_t w =
                static_cast<std::size_t>(worker_of(isw));
            if (rtc_owner_sw[w] < 0) rtc_owner_sw[w] = isw;
          }
          obs::stage_mark(obs::Cat::kWindowAdmit);
          const std::int64_t tns = now_ns();
          for (int w = 0; w < W; ++w) {
            if (rtc_owner_sw[static_cast<std::size_t>(w)] < 0) continue;
            Task t;
            t.phase = Task::Phase::kBurst;
            t.seq = static_cast<std::uint32_t>(b.base_seq);
            t.epoch = cur->id;
            t.sw = rtc_owner_sw[static_cast<std::size_t>(w)];
            t.guard = guard_budget;
            t.t_dispatch_ns = tns;
            t.burst_idx = static_cast<std::uint32_t>(bi);
            sched_send(std::move(t));
          }
          inflight += n;
          inflight_slot[cur->id % kEpochSlots] += n;
          next += n;
          ++bi;
          ++stats.rtc_bursts;
          progress = true;
          obs::stage_mark(obs::Cat::kBurstAssemble);
        }
      } else {
        // Head-of-line admission: dispatch in sequence order until the
        // window fills or the head's conflict mask is blocked.
        while (inflight < opts.window) {
          // Every event due at this boundary swaps before the packet at its
          // at_seq dispatches: a packet's epoch is exactly the number of
          // events at or before its sequence number, in both modes.
          if (ei < schedule.size() && schedule[ei].at_seq <= next) {
            if (due_s < 0) due_s = timer.seconds();
            bool applied = try_apply_event(schedule[ei]);
            // Everything the event machinery just did (polled
            // preconditions or built the whole epoch snapshot) is
            // epoch-swap time.
            obs::stage_mark(obs::Cat::kEpochSwap);
            if (!applied) break;  // drain first
            ++ei;
            due_s = -1;
            progress = true;
            continue;
          }
          if (next >= N) break;
          const SimPacket& sp = wl.packets[next];
          const int isw = cur->topo.port_switch(sp.inport);
          std::uint32_t hold_mask = kNoMask;
          std::uint32_t midx = 0;
          if (opts.deterministic) {
            midx = head_mask();
            const std::vector<StateVarId>& vars = cur->conflict->mask(midx);
            if (!vars.empty()) {
              const int cw = worker_of(isw);
              const bool confined = worker_of_mask(*cur, midx) == cw;
              bool blocked = false;
              for (StateVarId v : vars) {
                SNAP_CHECK(v < active.size(),
                           "conflict mask names a state variable outside "
                           "the deterministic gate table");
                // A conflict blocks unless both this packet and every
                // current holder of the variable are confined to the same
                // worker (then ring FIFO serializes them in sequence
                // order).
                if (active[v] > 0 && !(confined && conf[v] == cw)) {
                  blocked = true;
                  break;
                }
              }
              if (blocked) {
                head_blocked = true;
                if (tsample && next % tsample == 0 && blocked_seq != next) {
                  blocked_seq = next;
                  blocked_t0 = obs::tick_ns();
                }
                break;
              }
              for (StateVarId v : vars) {
                if (active[v]++ == 0) conf[v] = confined ? cw : -1;
              }
              hold_mask = midx;  // released when the completion echoes it
            }
          }
          Task t;
          t.mask_idx = hold_mask;
          t.phase = Task::Phase::kResolve;
          t.seq = static_cast<std::uint32_t>(next);
          t.epoch = cur->id;
          t.sw = isw;
          t.node = cur->root;
          t.guard = guard_budget;
          t.inport = sp.inport;
          t.t_dispatch_ns = now_ns();
          if (tsample && next % tsample == 0) {
            t.traced = true;
            if (blocked_seq == next) {
              // The sampled head waited in the conflict gate from
              // blocked_t0 until now.
              obs::record(obs::Cat::kPktGateWait, blocked_t0,
                          obs::tick_ns(), next,
                          static_cast<std::uint64_t>(isw), cur->id);
              blocked_seq = std::numeric_limits<std::uint64_t>::max();
            }
            obs::instant(obs::Cat::kPktDispatch, next,
                         static_cast<std::uint64_t>(isw), cur->id);
          }
          if (opts.check_soundness && opts.deterministic) {
            // midx is valid here: deterministic dispatch always resolved
            // it above. The interned mask entry outlives the walk (see
            // Task).
            const std::vector<StateVarId>& mv = cur->conflict->mask(midx);
            t.soundness = true;
            if (opts.corrupt_soundness_var >= 0) {
              corrupt_masks.emplace_back();
              std::vector<StateVarId>& bad = corrupt_masks.back();
              for (StateVarId v : mv) {
                if (static_cast<int>(v) != opts.corrupt_soundness_var) {
                  bad.push_back(v);
                }
              }
              t.mask_vars = bad.data();
              t.mask_n = static_cast<std::uint32_t>(bad.size());
            } else {
              t.mask_vars = mv.data();
              t.mask_n = static_cast<std::uint32_t>(mv.size());
            }
          }
          t.pkt = sp.pkt;
          ++inflight_slot[cur->id % kEpochSlots];
          sched_send(std::move(t));
          ++next;
          ++inflight;
          progress = true;
        }
        obs::stage_mark(obs::Cat::kWindowAdmit);
      }
      // Stage clock: residual dispatch work (event checks, RTC
      // descriptors) ends here; mask resolution and window admission were
      // attributed inline above.
      obs::stage_mark(obs::Cat::kDispatch);
      // The stream is fully dispatched: trailing events (at_seq >= N)
      // still swap, so the final rules/state match the reference replay.
      if (next >= N) {
        while (ei < schedule.size()) {
          if (due_s < 0) due_s = timer.seconds();
          bool applied = try_apply_event(schedule[ei]);
          obs::stage_mark(obs::Cat::kEpochSwap);
          if (!applied) break;
          ++ei;
          due_s = -1;
          progress = true;
        }
      }
      // Conflict-window boundary (blocked head, full window, or drained
      // workload): hand workers every partial batch before waiting.
      for (int d = 0; d < W; ++d) sched_flush(d);
      obs::stage_mark(obs::Cat::kRingPush);
      if (drain_completions()) progress = true;
      // Attribute the wait: an undispatchable head means the completions
      // we just polled for are what the conflict gate is blocked on; a
      // pending event means the epoch barrier is draining; otherwise this
      // was ordinary completion draining.
      if (due_s >= 0) {
        obs::stage_mark(obs::Cat::kEpochSwap);
      } else if (head_blocked) {
        obs::stage_mark(obs::Cat::kGateWait);
      } else {
        obs::stage_mark(obs::Cat::kDrain);
      }
      if (!progress) {
        std::this_thread::yield();
        obs::stage_mark(obs::Cat::kIdle);
      }
    }
    // Post-stream: apply any events still pending and wait out their
    // migration barriers before stopping the workers.
    merge_async();
    while ((ei < schedule.size() || pending_migrations > 0) &&
           !abort.load(std::memory_order_acquire)) {
      bool progress = false;
      if (ei < schedule.size() && pending_migrations == 0) {
        if (due_s < 0) due_s = timer.seconds();
        if (try_apply_event(schedule[ei])) {
          ++ei;
          due_s = -1;
          progress = true;
        }
        obs::stage_mark(obs::Cat::kEpochSwap);
      }
      for (int d = 0; d < W; ++d) sched_flush(d);
      if (drain_completions()) progress = true;
      obs::stage_mark(obs::Cat::kDrain);
      if (!progress) {
        std::this_thread::yield();
        obs::stage_mark(obs::Cat::kIdle);
      }
    }
    } catch (...) {
      abort.store(true, std::memory_order_release);
      stop.store(true, std::memory_order_release);
      for (auto& f : loops) f.wait();
      live_seconds_ns.store(
          static_cast<std::uint64_t>(timer.seconds() * 1e9),
          std::memory_order_relaxed);
      live_running.store(false, std::memory_order_release);
      throw;
    }
    stop.store(true, std::memory_order_release);
    for (auto& f : loops) f.wait();
    // Joining the workers is the last drain; attribute it before the
    // scheduler's clock stops.
    obs::stage_mark(obs::Cat::kDrain);
    if (sched_buf) sched_buf->finish();
    stats.seconds = timer.seconds();
    live_seconds_ns.store(static_cast<std::uint64_t>(stats.seconds * 1e9),
                          std::memory_order_relaxed);
    live_running.store(false, std::memory_order_release);
    if (err) std::rethrow_exception(err);
    // Fold every surviving epoch's counters into the Network.
    for (auto& s : epochs) {
      if (s) {
        retire_epoch(*s);
        s.reset();
      }
    }

    // Merge worker-local stats and deliveries.
    stats.pps = stats.seconds > 0 ? static_cast<double>(N) / stats.seconds
                                  : 0;
    std::vector<TaggedDelivery> all;
    stats.steady_allocs += corrupt_masks.size();  // test hook only
    for (int w = 0; w < W; ++w) {
      WorkerCtx& ctx = *ctxs[static_cast<std::size_t>(w)];
      stats.forwards += ctx.forwards;
      stats.steady_allocs += ctx.spill_events;
      for (int sw = 0; sw < num_sw; ++sw) {
        const std::size_t i = static_cast<std::size_t>(sw);
        stats.per_switch_instructions[i] += ctx.instr[i];
        stats.per_switch_events[i] += ctx.events[i];
        stats.instructions += ctx.instr[i];
      }
      all.insert(all.end(), std::make_move_iterator(ctx.deliveries.begin()),
                 std::make_move_iterator(ctx.deliveries.end()));
      marks.insert(marks.end(), ctx.epoch_marks.begin(),
                   ctx.epoch_marks.end());
    }
    // Fold the workers' instruction counts into the switches' own
    // counters so instructions_executed() stays meaningful. (Across
    // live events this folds the whole run into the final programs'
    // counters — apply_rules reset them at each swap.)
    for (int sw = 0; sw < num_sw; ++sw) {
      net->switch_at(sw).add_executed(
          stats.per_switch_instructions[static_cast<std::size_t>(sw)]);
    }
    // Ordered merge: global sequence, then the leaf's action-sequence
    // order — exactly the serial inject_batch concatenation.
    std::sort(all.begin(), all.end(),
              [](const TaggedDelivery& a, const TaggedDelivery& b) {
                return a.seq != b.seq ? a.seq < b.seq : a.copy < b.copy;
              });
    stats.deliveries = all.size();

    // Telemetry collection (control path, clocks stopped): fold the
    // per-thread stage clocks into the cycle-accounting table and drain
    // the span rings for trace export.
    if (obs_on) {
      for (auto& b : obs_bufs) {
        if (opts.profile) {
          SimStats::CycleRow row;
          row.name = b->name();
          row.wall_ns = b->wall_ns();
          const auto& cn = b->cat_ns();
          row.cat_ns.assign(cn.begin(),
                            cn.begin() + static_cast<std::ptrdiff_t>(
                                             obs::kAcctCatCount));
          stats.cycles.push_back(std::move(row));
        }
        if (tsample > 0) {
          obs::TraceThread th;
          th.name = b->name();
          th.tid = b->tid();
          th.recs = b->drain();
          th.dropped = b->dropped();
          stats.trace_records += th.recs.size();
          stats.trace_dropped += th.dropped;
          trace_data.threads.push_back(std::move(th));
        }
      }
      obs_bufs.clear();
    }

    // Metrics registry (obs/metrics.h): the occupancy / stall / cache
    // figures `snapc --serve` exposes and `--metrics` dumps.
    {
      auto& reg = obs::Registry::global();
      reg.set_gauge("snap_engine_workers", W, "engine worker threads");
      reg.set_counter("snap_engine_packets_total",
                      static_cast<double>(stats.packets),
                      "packets processed by the last run");
      reg.set_counter("snap_engine_deliveries_total",
                      static_cast<double>(stats.deliveries),
                      "deliveries produced by the last run");
      reg.set_gauge("snap_engine_pps", stats.pps,
                    "packets per second of the last run");
      reg.set_counter("snap_conflict_cache_hits_total",
                      static_cast<double>(stats.conflict_hits),
                      "conflict-mask lookups served from cache");
      reg.set_counter("snap_conflict_cache_misses_total",
                      static_cast<double>(stats.conflict_misses),
                      "conflict-mask lookups that walked the diagram");
      reg.set_gauge("snap_epoch_slot_hwm", stats.epoch_slot_hwm,
                    "concurrently-live epoch slots high-water mark");
      reg.set_counter("snap_epoch_stall_total{cause=\"slot\"}",
                      static_cast<double>(stats.epoch_stall_slot),
                      "epoch-swap polls stalled, by cause");
      reg.set_counter("snap_epoch_stall_total{cause=\"mask\"}",
                      static_cast<double>(stats.epoch_stall_mask));
      reg.set_counter("snap_epoch_stall_total{cause=\"migration\"}",
                      static_cast<double>(stats.epoch_stall_migration));
      for (int w = 0; w < W; ++w) {
        const std::string lw = "w" + std::to_string(w);
        reg.set_gauge(
            "snap_ring_occupancy_hwm{ring=\"task_" + lw + "\"}",
            static_cast<double>(
                stats.ring_hwm[static_cast<std::size_t>(w)]),
            "SPSC ring occupancy high-water marks (profile mode)");
        reg.set_gauge(
            "snap_ring_occupancy_hwm{ring=\"comp_" + lw + "\"}",
            static_cast<double>(
                stats.comp_ring_hwm[static_cast<std::size_t>(w)]));
      }
      std::uint64_t entries = 0;
      for (int sw = 0; sw < num_sw; ++sw) {
        const Store& st = net->switch_at(sw).state();
        for (StateVarId v : st.var_ids()) {
          entries += st.table(v).entries().size();
        }
      }
      reg.set_gauge("snap_state_table_entries",
                    static_cast<double>(entries),
                    "state-table entries across all switches");
    }

    std::vector<Network::Delivery> out;
    out.reserve(all.size());
    for (auto& d : all) {
      out.push_back({d.outport, std::move(d.packet)});
    }
    return out;
  }
};

TrafficEngine::TrafficEngine(Network& net, EngineOptions opts)
    : impl_(std::make_unique<Impl>(net, opts)) {}

TrafficEngine::TrafficEngine(const RuleDelta& delta, EngineOptions opts) {
  auto owned = std::make_unique<Network>(delta);
  impl_ = std::make_unique<Impl>(*owned, opts, delta.shard_hint);
  impl_->owned = std::move(owned);
}

TrafficEngine::~TrafficEngine() = default;

std::vector<Network::Delivery> TrafficEngine::run(const Workload& wl) {
  return impl_->run_live(wl, {});
}

std::vector<Network::Delivery> TrafficEngine::run_live(
    const Workload& wl, std::vector<LiveEvent> schedule) {
  return impl_->run_live(wl, std::move(schedule));
}

void TrafficEngine::apply_async(RuleDelta delta, std::string label) {
  {
    std::lock_guard<std::mutex> lk(impl_->async_mu);
    impl_->async_events.push_back(
        LiveEvent{0, std::move(delta), std::move(label)});
  }
  impl_->async_pending.store(true, std::memory_order_release);
}

LiveProgress TrafficEngine::live() const {
  LiveProgress p;
  p.completed = impl_->live_completed.load(std::memory_order_relaxed);
  p.packets = impl_->live_packets.load(std::memory_order_relaxed);
  p.events_applied = impl_->live_events.load(std::memory_order_relaxed);
  p.epoch = impl_->live_epoch.load(std::memory_order_relaxed);
  p.running = impl_->live_running.load(std::memory_order_relaxed);
  auto start = impl_->live_started_ns.load(std::memory_order_relaxed);
  p.seconds =
      p.running && start
          ? static_cast<double>(now_ns() - start) * 1e-9
          : static_cast<double>(impl_->live_seconds_ns.load(
                std::memory_order_relaxed)) *
                1e-9;
  auto ns = impl_->live_last_latency_ns.load(std::memory_order_relaxed);
  p.last_event_latency_s = ns < 0 ? -1 : static_cast<double>(ns) * 1e-9;
  return p;
}

const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
TrafficEngine::epoch_marks() const {
  return impl_->marks;
}

const SimStats& TrafficEngine::stats() const { return impl_->stats; }

const ShardPlan& TrafficEngine::shard_plan() const { return impl_->splan; }

const obs::TraceData& TrafficEngine::trace() const {
  return impl_->trace_data;
}

Network& TrafficEngine::network() { return *impl_->net; }

}  // namespace sim
}  // namespace snap
