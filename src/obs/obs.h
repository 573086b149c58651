// Telemetry core: scoped spans, per-thread trace rings, and stage-clock
// cycle accounting shared by the engine, the burst pipeline, and the
// compiler session.
//
// Design constraints (the PR-8 invariants this layer must not break):
//
//   - Zero heap on the hot path. A ThreadBuf preallocates its span ring at
//     construction (control path, before the steady state); recording a
//     span is a bounded-index store into that ring. When the buffer is
//     full the ring overwrites its oldest record flight-recorder style and
//     counts the loss — nothing ever grows.
//   - Zero overhead when compiled out: `SNAP_OBS=0` turns every macro and
//     inline hook into `((void)0)`, so the instrumented binary is
//     bit-identical in codegen to an uninstrumented one.
//   - Near-zero overhead when compiled in but disarmed (the default):
//     every hook is one thread-local pointer load plus a predictable
//     branch. No clock is read, no store happens. tools/ci.sh gates this
//     at >= 95% of baseline serial pps.
//
// Two recording disciplines share the ThreadBuf:
//
//   - Spans (trace_on): RAII `Span` / explicit `record()` push complete
//     [t0,t1] records into the ring, exported as Chrome trace-event JSON
//     (obs/trace.h) for Perfetto. Sampled packet tracing uses the same
//     ring with packet args (seq / switch / epoch / instructions).
//   - Stage clock (acct_on): `stage_mark(cat)` attributes the time since
//     the previous mark to a category, partitioning the thread's timeline
//     into named buckets (exec / ring / gate-wait / idle / ...). Because
//     marks partition wall time by construction, the per-worker
//     cycle-accounting table in SimStats attributes ~100% of each
//     thread's wall to named causes — the "where do det-2w's cycles go"
//     table.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#ifndef SNAP_OBS
#define SNAP_OBS 1
#endif

namespace snap {
namespace obs {

// Span / accounting categories. Engine stages first, then compiler
// phases, then packet-trace record kinds. Keep cat_name() in sync.
enum class Cat : std::uint8_t {
  // Engine worker stages.
  kExec,         // program walk (decoded program / burst suffix)
  kClassify,     // burst pipeline: vectorized field-prefix classification
  kStateSuffix,  // burst pipeline: per-lane state-test suffix walk
  kWrite,        // leaf write programs (burst stage or kWrite visits)
  kEgress,       // egress walk + delivery staging
  kRingPush,     // SPSC push side (task + completion flushes)
  kRingPop,      // SPSC pop side (inbox sweeps that yielded work)
  kRingFull,     // full-ring backpressure (overflow spill / retry)
  // Scheduler stages.
  kDispatch,       // residual dispatch work (event checks, RTC descriptors)
  kMaskResolve,    // bulk conflict-mask resolution (one burst per refill)
  kWindowAdmit,    // conflict-window admission sweep (gate checks, task fill)
  kBurstAssemble,  // task-burst assembly + SPSC push
  kGateWait,       // conflict-window head blocked on an earlier packet
  kDrain,      // completion draining
  kEpochSwap,  // live-update: epoch build / retire / migration hold
  // Cross-cutting.
  kSoundness,  // soundness-scope install (mask copy into TLS)
  kIdle,       // polled, found nothing
  // Compiler phases (session.cpp PhaseRecorder).
  kP1Dependency,
  kP2Xfdd,
  kP3StateMap,
  kP4MilpModel,
  kP5Solve,
  kP6Rulegen,
  // Sampled packet-trace records (trace ring only, never accounted).
  kPktDispatch,  // instant: scheduler handed the packet to a worker
  kPktSegment,   // one walk segment on one switch/worker
  kPktRingHop,   // instant: cross-shard ring transit
  kPktGateWait,  // conflict-gate wait attributed to a sampled head
  kPktComplete,  // instant: completion drained by the scheduler
  kCount,
};

inline constexpr std::size_t kCatCount = static_cast<std::size_t>(Cat::kCount);

// Stable lowercase names — these are JSON keys in SimStats::to_json and
// Chrome trace event names; the golden-schema test pins them.
const char* cat_name(Cat c);

// Engine-relevant subset emitted as per-row keys in the SimStats
// cycle-accounting table (compiler phases and packet-record kinds are
// excluded: they never receive stage-clock time in an engine thread).
inline constexpr std::size_t kAcctCatCount =
    static_cast<std::size_t>(Cat::kIdle) + 1;

// Monotonic nanoseconds (steady clock — same domain as util/timer.h).
inline std::uint64_t tick_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One completed span (or instant when t0 == t1). Args carry packet-trace
// payloads: a0 = sequence, a1 = switch, a2 = epoch, a3 = instructions.
struct SpanRec {
  std::uint64_t t0 = 0, t1 = 0;
  std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  Cat cat = Cat::kExec;
  std::uint8_t depth = 0;
};

// Per-thread telemetry buffer: a fixed span ring plus the stage-clock
// accounting array. Constructed on the control path (one allocation),
// bound to a thread via BindThread, armed per run.
class ThreadBuf {
 public:
  explicit ThreadBuf(std::string name, std::uint32_t tid,
                     std::size_t capacity = std::size_t{1} << 15)
      : ring_(capacity), name_(std::move(name)), tid_(tid) {}

  // Resets counters and arms the recording disciplines for one run.
  void arm(bool trace_on, bool acct_on) {
    n_ = 0;
    depth_ = 0;
    dropped_ = 0;
    cat_ns_.fill(0);
    trace_on_ = trace_on;
    acct_on_ = acct_on;
    start_ = last_ = tick_ns();
    wall_ns_ = 0;
  }

  // Stamps the wall clock; call from the owning thread when its loop
  // exits (before the control path reads the accounting table).
  void finish() { wall_ns_ = tick_ns() - start_; }

  bool trace_on() const { return trace_on_; }
  bool acct_on() const { return acct_on_; }

  void push(const SpanRec& r) {
    ring_[n_ % ring_.size()] = r;
    if (n_ >= ring_.size()) ++dropped_;
    ++n_;
  }

  std::uint8_t enter() { return depth_ < 255 ? depth_++ : depth_; }
  void leave() {
    if (depth_ > 0) --depth_;
  }

  void stage_mark(Cat c) {
    std::uint64_t now = tick_ns();
    cat_ns_[static_cast<std::size_t>(c)] += now - last_;
    last_ = now;
  }

  // Chronological copy of the retained records (oldest surviving first).
  std::vector<SpanRec> drain() const {
    std::vector<SpanRec> out;
    std::size_t kept = n_ < ring_.size() ? n_ : ring_.size();
    out.reserve(kept);
    std::size_t first = n_ - kept;
    for (std::size_t i = 0; i < kept; ++i)
      out.push_back(ring_[(first + i) % ring_.size()]);
    return out;
  }

  const std::array<std::uint64_t, kCatCount>& cat_ns() const {
    return cat_ns_;
  }
  std::uint64_t wall_ns() const { return wall_ns_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t recorded() const { return n_; }
  const std::string& name() const { return name_; }
  std::uint32_t tid() const { return tid_; }

 private:
  std::vector<SpanRec> ring_;
  std::size_t n_ = 0;
  std::uint64_t dropped_ = 0;
  std::array<std::uint64_t, kCatCount> cat_ns_{};
  std::uint64_t start_ = 0, last_ = 0, wall_ns_ = 0;
  std::uint8_t depth_ = 0;
  bool trace_on_ = false;
  bool acct_on_ = false;
  std::string name_;
  std::uint32_t tid_ = 0;
};

// The thread's bound buffer; null (the default) disarms every hook.
// constinit: the compiler then knows the variable needs no dynamic
// initialization and accesses it directly instead of through the TLS
// wrapper function (whose null return UBSan reports as a null deref).
extern constinit thread_local ThreadBuf* tl_buf;

// Scoped bind/unbind — engine threads bind their per-run ThreadBuf for
// exactly the lifetime of their loop, so buffers never outlive the run
// that owns them (ThreadPool recreates threads per run).
class BindThread {
 public:
  explicit BindThread(ThreadBuf* b) : prev_(tl_buf) { tl_buf = b; }
  ~BindThread() { tl_buf = prev_; }
  BindThread(const BindThread&) = delete;
  BindThread& operator=(const BindThread&) = delete;

 private:
  ThreadBuf* prev_;
};

#if SNAP_OBS

// Attributes time-since-last-mark to `c` (stage-clock accounting).
inline void stage_mark(Cat c) {
  ThreadBuf* b = tl_buf;
  if (b && b->acct_on()) b->stage_mark(c);
}

// True when the bound buffer records spans — lets callers skip arg
// computation for unsampled packets.
inline bool tracing() {
  ThreadBuf* b = tl_buf;
  return b && b->trace_on();
}

// Pushes a complete span with explicit endpoints (packet tracing).
inline void record(Cat c, std::uint64_t t0, std::uint64_t t1,
                   std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                   std::uint64_t a2 = 0, std::uint64_t a3 = 0) {
  ThreadBuf* b = tl_buf;
  if (b && b->trace_on()) b->push({t0, t1, a0, a1, a2, a3, c, 0});
}

// Pushes an instant event (rendered as a Perfetto instant marker).
inline void instant(Cat c, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                    std::uint64_t a2 = 0, std::uint64_t a3 = 0) {
  ThreadBuf* b = tl_buf;
  if (b && b->trace_on()) {
    std::uint64_t t = tick_ns();
    b->push({t, t, a0, a1, a2, a3, c, 0});
  }
}

// RAII span: records [ctor, dtor] into the thread ring when tracing.
class Span {
 public:
  explicit Span(Cat c, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                std::uint64_t a2 = 0, std::uint64_t a3 = 0) {
    ThreadBuf* b = tl_buf;
    if (b && b->trace_on()) {
      buf_ = b;
      rec_.cat = c;
      rec_.a0 = a0;
      rec_.a1 = a1;
      rec_.a2 = a2;
      rec_.a3 = a3;
      rec_.depth = b->enter();
      rec_.t0 = tick_ns();
    }
  }
  ~Span() {
    if (buf_) {
      rec_.t1 = tick_ns();
      buf_->leave();
      buf_->push(rec_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadBuf* buf_ = nullptr;
  SpanRec rec_;
};

#define SNAP_OBS_CONCAT2(a, b) a##b
#define SNAP_OBS_CONCAT(a, b) SNAP_OBS_CONCAT2(a, b)
#define SNAP_SPAN(cat) \
  ::snap::obs::Span SNAP_OBS_CONCAT(snap_obs_span_, __LINE__)(cat)

#else  // !SNAP_OBS

inline void stage_mark(Cat) {}
inline bool tracing() { return false; }
inline void record(Cat, std::uint64_t, std::uint64_t, std::uint64_t = 0,
                   std::uint64_t = 0, std::uint64_t = 0, std::uint64_t = 0) {}
inline void instant(Cat, std::uint64_t = 0, std::uint64_t = 0,
                    std::uint64_t = 0, std::uint64_t = 0) {}

class Span {
 public:
  explicit Span(Cat, std::uint64_t = 0, std::uint64_t = 0, std::uint64_t = 0,
                std::uint64_t = 0) {}
};

#define SNAP_SPAN(cat) ((void)0)

#endif  // SNAP_OBS

}  // namespace obs
}  // namespace snap
