// The sharded traffic engine: driving a deployed data plane at batch rates.
//
// SNAP's placement argument is an execution model: the MILP partitions
// state variables across switches, so a switch's tables have exactly one
// writer — the switch itself. The engine exploits that by sharding switches
// over single-threaded workers (a ShardPlan switch→worker map, by default
// the compiler's conflict-locality plan — sim/shardplan.h; per-switch
// execution in the NetASM model of Shahbaz & Feamster [32]): each worker
// runs the decoded programs (netasm/decoded.h) of its switches against
// their worker-local Store tables, so no lock ever guards state. Packets
// move between shards as messages over SPSC rings (sim/spsc.h): a stuck
// packet becomes a kResolve message to the owning variable's shard, a
// distributed leaf write becomes a kWrite visit chain, and egress walks
// complete inline on the final shard (they only touch the Network's atomic
// hop counters).
//
// Two levers close the gap between the per-packet scheduler round-trip
// and line rate:
//   - Burst dispatch: tasks and completions cross every ring in
//     fixed-size bursts (EngineOptions::burst, up to kMaxTaskBurst per
//     message) flushed on conflict-window boundaries and idle sweeps, so
//     the SPSC cursor round-trip amortizes ~burst×. Conflict masks for the
//     next burst of the sequence are resolved in one bulk lookup, and each
//     dispatched task carries its mask index so completions release the
//     conflict window without any per-packet bookkeeping allocation.
//   - Per-flow conflict caching (sim/conflict.h): the conflict mask is a
//     function of the packet's values on the diagram's tested fields, so
//     the scheduler keys it by that field signature (with a per-flow front
//     cache) and re-walks the diagram only for never-seen signatures.
//
// Determinism. In deterministic mode (the default) the scheduler replays
// the workload's global sequence order under a conflict window: packets
// are admitted head-of-line, and packet k is dispatched only once every
// incomplete earlier packet it shares a state variable with has completed
// (or, when both are confined to one worker, is queued ahead of it on
// that worker's ring). The shared-variable over-approximation is a
// field-consistent walk of the xFDD (field tests decided by the packet,
// both branches of state tests taken, leaf write-sets unioned), so any
// variable the packet *could* read or write is covered. Conflicting packets
// therefore execute in exactly the serial order, disjoint packets commute,
// and deliveries are merge-sorted by (sequence, copy) — the result is
// byte-identical to Network::inject_batch over the same workload for every
// worker count and batch size, which tests/test_sim.cpp and
// bench_throughput --check enforce across the policy corpus. Free-running
// mode drops the conflict gate for peak-pps measurements where
// cross-packet state ordering may differ from serial: with no live
// schedule, workers drain whole SoA bursts run-to-completion; with one,
// the scheduler dispatches per packet.
//
// Live updates (epoch-based rule swap). run_live() interleaves Session
// RuleDeltas into a running workload without draining it. Every deployment
// context a packet can observe — diagram store + root, topology, routing
// tables, placement, test order, the switches' decoded programs (shared
// with the switches, not copied), the RTC classifier, and (deterministic
// mode) the conflict cache — is snapshotted into an immutable EpochCtx; each task carries the id of the epoch it was
// dispatched under and resolves *all* context through it for its entire
// walk. That is the consistency contract: a packet observes exactly one
// policy epoch across all of its hops, in both scheduling modes, because
// epoch assignment happens once at dispatch and nothing a worker touches
// is shared across epochs except the per-switch state tables.
//
// State migration rides the same machinery. At a swap the scheduler
// patches the Network's rules half (Network::apply_rules — programs,
// routing, placement), then sends one kMigrate control task per affected
// switch to the worker that owns it; the worker applies
// Network::migrate_switch_state (clear for removed/restored switches,
// prune of re-placed variables otherwise) in ring-FIFO position — after
// every packet the scheduler dispatched under the old epoch, before any it
// dispatches under the new one. In deterministic mode the scheduler
// additionally (a) waits until no in-flight packet's conflict mask
// intersects the migration set M (the variables whose placement changed
// plus everything on removed/restored switches), and (b) holds M like an
// unconfined pseudo-packet until every migrate completion returns, so
// new-epoch packets that could observe migrated state are serialized
// behind the migration. Under those two rules the live run's deliveries
// and final merged state are byte-identical to the quiesced reference
// (drain, Network::apply, resume) — packets with disjoint masks commute
// and everything else executes in exact sequence order
// (tests/test_live_update.cpp enforces this across the policy corpus).
// Free-running mode keeps the single-epoch-per-packet contract and the
// ring-FIFO migration position but makes no cross-epoch state-content
// promise, mirroring its cross-packet stance.
//
// Epoch contexts live in a fixed ring of kEpochSlots slots; a slot is
// reused only after every packet of its previous occupant has completed
// (the ring push/pop release-acquire pair publishes the slot pointer to
// workers), which bounds concurrently-live epochs without locking the hot
// path. Per-epoch hop/link counters are folded into the Network when an
// epoch retires — exact when the topology survived, best-effort for links
// a failure removed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/network.h"
#include "obs/trace.h"
#include "sim/shardplan.h"
#include "sim/workload.h"

namespace snap {
namespace sim {

// Upper bound on EngineOptions::burst (tasks per ring message). Shared
// with the SoA burst layout: one trace burst maps onto one ring message at
// the maximum setting.
inline constexpr int kMaxTaskBurst = kMaxBurst;

// Default for EngineOptions::check_soundness: armed wherever SNAP_DCHECK is
// (debug and sanitizer builds), off in release.
#ifdef NDEBUG
inline constexpr bool kSoundnessCheckDefault = false;
#else
inline constexpr bool kSoundnessCheckDefault = true;
#endif

// How the engine maps switches onto workers (see sim/shardplan.h).
enum class ShardMode {
  kLocality,  // compiler conflict-locality plan (RuleDelta hint or derived)
  kExplicit,  // EngineOptions::shard_map verbatim
};

struct EngineOptions {
  // 0 = one worker per hardware thread, clamped to the switch count.
  int workers = 0;
  // Switch→worker assignment policy. kLocality uses the RuleDelta's
  // compiler-computed ShardHint when present (deriving one from the
  // network otherwise); kExplicit takes shard_map verbatim (must hold one
  // worker id in [0, workers) per switch).
  ShardMode shard = ShardMode::kLocality;
  std::vector<int> shard_map;
  // Deterministic (serial-equivalent) scheduling vs free-running shards.
  // Free-running runs with an empty schedule drain whole 64-packet bursts
  // through per-worker run-to-completion loops (SoA classification at the
  // ingress worker, then the normal per-switch walk).
  bool deterministic = true;
  // Maximum packets in flight (also sizes the rings).
  std::size_t window = 512;
  // Tasks per ring message (clamped to [1, kMaxTaskBurst]). Bursts are
  // flushed early on conflict-window boundaries and idle sweeps, so small
  // workloads never stall behind a partial burst.
  int burst = 32;
  // Record a (sequence, epoch) mark for every program run a packet
  // performs (epoch_marks()); the live-update contract tests read these.
  bool record_epochs = false;
  // Dynamic conflict-mask soundness cross-check (sim/soundness.h, the
  // runtime half of lint rule SL500): every Store access a worker performs
  // for a packet is asserted to lie inside the conflict mask the scheduler
  // dispatched it under; a violation throws InternalError through the
  // worker error channel. Deterministic mode only (free-running builds no
  // masks). Costs one thread-local pointer load per state instruction when
  // armed.
  bool check_soundness = kSoundnessCheckDefault;
  // TESTING ONLY: drop this state-variable id from every dispatched
  // soundness mask, simulating a mask-computation hole (the PR-5
  // sparse-state-id bug class) so tests can prove the cross-check fires.
  // Negative = off.
  int corrupt_soundness_var = -1;
  // Stall-attribution profiling: arm the per-thread stage clocks and
  // collect the per-worker cycle-accounting table into SimStats::cycles.
  // Costs a few steady-clock reads per task burst; off by default.
  bool profile = false;
  // Sampled packet tracing: 0 = off, N = trace every packet whose
  // sequence is a multiple of N (deterministic in the workload, not the
  // schedule). Traced records are exported via trace() as Chrome
  // trace-event JSON. Implies span recording on every engine thread.
  std::uint32_t trace_sample = 0;
};

// One entry of a run_live schedule: apply `delta` before dispatching the
// packet with sequence number `at_seq` (packets >= at_seq run on the new
// rules; at_seq >= workload size applies after the stream drains).
struct LiveEvent {
  std::size_t at_seq = 0;
  RuleDelta delta;
  std::string label;
};

// What one live event cost, measured from the moment its at_seq boundary
// was reached (the event became *due* — the analogue of the controller
// handing the delta to the data plane).
struct LiveEventStats {
  std::string label;
  std::uint64_t at_seq = 0;
  std::uint32_t epoch = 0;           // the epoch the event created
  std::uint64_t migrated_switches = 0;
  std::uint64_t migrated_vars = 0;   // |M|: placement-changed + removed/added
  // Due -> rules swapped (includes the deterministic drain of M-conflicting
  // in-flight packets and the epoch-artifact build).
  double swap_seconds = 0;
  // Due -> first packet dispatched under the new epoch completed; -1 if no
  // packet ever ran on the new rules (event applied at stream end).
  double first_packet_seconds = -1;
};

// Snapshot of a run_live in progress (thread-safe; snapd polls this from
// outside the engine thread).
struct LiveProgress {
  std::uint64_t completed = 0;
  std::uint64_t packets = 0;
  std::uint64_t events_applied = 0;
  std::uint32_t epoch = 0;
  double seconds = 0;
  double last_event_latency_s = -1;  // first_packet_seconds of last event
  bool running = false;
};

struct SimStats {
  std::uint64_t packets = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t forwards = 0;  // cross-shard messages (stuck + write visits)
  std::uint64_t instructions = 0;
  std::uint64_t hops = 0;
  // Conflict-mask cache effectiveness (deterministic mode): lookups served
  // from the flow/signature cache vs full field-consistent diagram walks.
  std::uint64_t conflict_hits = 0;
  std::uint64_t conflict_misses = 0;
  std::vector<std::uint64_t> per_switch_instructions;
  std::vector<std::uint64_t> per_switch_events;  // program runs per switch
  std::vector<std::uint64_t> hop_histogram;      // per-packet hops, clamped
  std::vector<std::uint64_t> latency_histogram;  // log2(us) buckets
  double seconds = 0;
  double pps = 0;
  int workers = 1;
  int burst = 1;  // effective tasks per ring message
  // Scheduler-side per-packet heap events in the dispatch/completion loop
  // (ring-overflow spills and test-only mask corruption). Zero in the
  // steady state: masks ride in the tasks themselves and the rings are
  // sized to the window.
  std::uint64_t steady_allocs = 0;
  bool deterministic = true;
  // Shard-plan provenance and quality (scored against the run's hint):
  // hint edges whose endpoints landed on different workers are potential
  // scheduler round trips.
  std::string shard_mode;  // "locality" | "explicit"
  std::uint64_t shard_cross_edges = 0;
  std::uint64_t shard_total_edges = 0;
  // Epoch swaps whose re-placement made the frozen plan cut more conflict
  // edges than a fresh plan would (plans never change mid-run; this counts
  // the divergence instead).
  std::uint64_t shard_drift = 0;
  // Packets dispatched ahead of a blocked earlier packet. Admission is
  // head-of-line, so this is always 0; kept because reports read it.
  std::uint64_t lookahead_dispatches = 0;
  // Free-running RTC: 64-packet bursts dispatched as per-worker
  // run-to-completion descriptors.
  std::uint64_t rtc_bursts = 0;
  std::uint32_t epochs = 1;           // policy epochs the run spanned
  std::vector<LiveEventStats> events; // one per applied live event

  // One row of the per-thread cycle-accounting table (profile mode):
  // wall time of the thread's loop partitioned into obs::Cat buckets
  // (exec / ring / gate-wait / idle / ...). Whatever the stage clock
  // did not attribute is the residual (instrumentation + untracked).
  struct CycleRow {
    std::string name;  // "scheduler", "worker0", ...
    std::uint64_t wall_ns = 0;
    std::vector<std::uint64_t> cat_ns;  // obs::kAcctCatCount entries
  };
  std::vector<CycleRow> cycles;  // empty unless EngineOptions::profile

  // Ring-occupancy high-water marks sampled on scheduler flush boundaries
  // (profile mode): task inbox and completion ring per worker.
  std::vector<std::uint64_t> ring_hwm;
  std::vector<std::uint64_t> comp_ring_hwm;

  // Epoch machinery occupancy/stall counters (always on — control path).
  // Stalls count try_apply_event polls that bailed, by cause.
  std::uint32_t epoch_slot_hwm = 0;
  std::uint64_t epoch_stall_slot = 0;       // all kEpochSlots occupied
  std::uint64_t epoch_stall_mask = 0;       // M-conflicting packets in flight
  std::uint64_t epoch_stall_migration = 0;  // prior migration not drained
  // Sampled packet tracing (trace_sample mode): records retained across
  // all thread rings, and flight-recorder overwrites.
  std::uint64_t trace_records = 0;
  std::uint64_t trace_dropped = 0;

  // Doubles (seconds, pps) are emitted at max_digits10 so the JSON perf
  // trajectory round-trips without precision loss.
  std::string to_json() const;
};

class TrafficEngine {
 public:
  // Drives an existing network; `net` must outlive the engine.
  explicit TrafficEngine(Network& net, EngineOptions opts = {});

  // Convenience for handing a compiled event straight to the engine: builds
  // and owns a Network cold-started from the delta (Session::deployment()
  // or a full_compile event's delta).
  explicit TrafficEngine(const RuleDelta& delta, EngineOptions opts = {});

  ~TrafficEngine();

  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  // Processes the whole workload; returns deliveries in serial order
  // (workload sequence, then action-sequence order within one packet).
  // Worker exceptions (e.g. a policy referencing an absent field) are
  // rethrown here. Equivalent to run_live with an empty schedule — the
  // whole run is one epoch.
  std::vector<Network::Delivery> run(const Workload& wl);

  // Live-update mode: processes the workload while applying each schedule
  // entry's RuleDelta at its at_seq dispatch boundary (see the header
  // comment for the epoch/consistency contract). Deltas queued through
  // apply_async while this runs are applied at the next boundary. The
  // network ends up on the final epoch's rules with migrated state;
  // stats().events records per-event swap and first-packet latencies.
  std::vector<Network::Delivery> run_live(const Workload& wl,
                                          std::vector<LiveEvent> schedule);

  // Thread-safe: hands a delta to a run_live in progress (snapd's serve
  // loop); it is adopted at the next dispatch boundary. Queued deltas
  // survive until the next run_live if none is running.
  void apply_async(RuleDelta delta, std::string label);

  // Thread-safe progress snapshot of the current (or last) run_live.
  LiveProgress live() const;

  // (sequence, epoch) per program run recorded when
  // EngineOptions::record_epochs — the raw material of the
  // single-epoch-per-packet assertion. Valid after run()/run_live()
  // returns; unordered across workers.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& epoch_marks()
      const;

  // Statistics of the last run().
  const SimStats& stats() const;

  // The switch→worker plan this engine runs with (built at construction;
  // frozen across epoch swaps). snapc --shard-plan dumps this.
  const ShardPlan& shard_plan() const;

  // Drained span rings of the last run (profile or trace_sample mode):
  // one TraceThread per engine thread, ready for obs::write_chrome_trace.
  const obs::TraceData& trace() const;

  Network& network();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sim
}  // namespace snap
