// Flat, pre-decoded form of a netasm::Program — the one per-switch
// interpreter.
//
// The variant-based Program is the compiler's currency: easy to diff, easy
// to disassemble, and what RuleDelta, lint and `snapc --rules` consume.
// Interpreting it per packet would pay a std::visit dispatch, a map lookup
// per entry point, and an Expr::eval allocation walk per state operand.
// SoftwareSwitch decodes its program once per install instead, and every
// execution path that runs a switch's program (Network::inject and the sim
// engine's workers) runs this form:
//
//   - instructions become a dense struct tagged by a small enum, so the
//     inner loop is a tight switch over instruction tags;
//   - atomic-region markers are folded out (they are annotations for
//     hardware targets; single-threaded execution per switch is trivially
//     atomic) and every branch PC is remapped to the compacted code, so
//     instruction counts exclude them;
//   - the per-node entry map becomes a sorted flat vector (binary search);
//   - field-value tests pre-compute their prefix mask and pre-masked
//     compare value;
//   - state operands (index/value expressions) are interned once into
//     DecodedExpr slots whose constant atoms are pre-evaluated — per packet
//     only the field atoms are fetched, into a caller-provided scratch
//     buffer, so the hot loop does no allocation for repeated operands.
//
// Semantics follow lang/eval: the dataplane tests check traces against the
// eval oracle, and tests/test_dataplane.cpp pins the instruction
// accounting by hand count.
#pragma once

#include <cstdint>

#include "lang/eval.h"
#include "netasm/isa.h"

namespace snap {
namespace netasm {

// A state operand with constants pre-evaluated: `prefill` holds the literal
// atoms in place; `fields` lists the (slot, field) pairs still to fetch.
struct DecodedExpr {
  ValueVec prefill;
  std::vector<std::pair<std::uint16_t, FieldId>> fields;

  // Evaluates into `out` (resized/overwritten). Returns false if the packet
  // lacks a referenced field — the same nullopt condition as Expr::eval.
  // Templated over the record type so the burst pipeline's SoA lane views
  // (anything with Packet's get(FieldId) shape) evaluate through the same
  // pre-filled slots.
  template <typename PktT>
  bool eval_into_t(const PktT& pkt, ValueVec& out) const {
    out = prefill;
    for (const auto& [slot, f] : fields) {
      auto v = pkt.get(f);
      if (!v) return false;
      out[slot] = *v;
    }
    return true;
  }

  bool eval_into(const Packet& pkt, ValueVec& out) const {
    return eval_into_t(pkt, out);
  }
};

// The SoA lane stride classification kernels are written against. Matches
// sim::kMaxBurst (static_asserted where the two layers meet) without making
// netasm depend on sim headers.
inline constexpr int kLaneStride = 64;

class DecodedProgram {
 public:
  enum class Op : std::uint8_t {
    kBranchFVExact,  // whole-64-bit compare (prefix_len == kExactMatch)
    kBranchFVMask,   // 32-bit prefix compare against a pre-masked value
    kBranchFVAny,    // prefix_len == 0: passes iff the field is present
    kBranchFF,
    kBranchState,
    kEscape,
    kStateSet,
    kStateInc,
    kStateDec,
    kLeafDone,
  };

  struct DInstr {
    Op op;
    FieldId f1 = 0, f2 = 0;
    std::uint32_t mask = 0;  // kBranchFVMask
    Value value = 0;         // compare value (pre-masked for kBranchFVMask)
    Pc on_true = 0, on_false = 0;
    StateVarId var = 0;
    std::int32_t index = -1, vexpr = -1;  // DecodedExpr ids
    XfddId node = 0;                      // escape node / leaf id
  };

  // Stuck on a foreign state variable (escape) or a resolved leaf.
  struct Outcome {
    enum Kind { kStuck, kLeaf } kind;
    XfddId node = 0;
    StateVarId stuck_var = 0;
  };

  // Reusable per-thread evaluation buffers (no allocation in the steady
  // state of the hot loop).
  struct Scratch {
    ValueVec index;
    ValueVec value;
  };

  static DecodedProgram decode(const Program& p);

  // Resumes at the entry for `node`, reading/writing `state`, bumping
  // *executed once per retained instruction. Throws CompileError when a
  // state update references an absent field, and InternalError ("no
  // program entry") when the program has no entry for `node` — e.g. the
  // empty program of a removed switch.
  //
  // `sound` selects between two instantiations of the same loop, one with
  // the per-state-instruction mask cross-check hook (sim::note_state_access
  // — a TLS load per state op) and one with that hook compiled out
  // entirely. The engine passes EngineOptions::check_soundness so
  // release-mode runs pay nothing for the check's existence while the CI
  // soundness gate can still arm it; Network::inject never arms it.
  Outcome run(XfddId node, const Packet& pkt, Store& state,
              Scratch& scratch, std::uint64_t* executed, bool sound) const {
    return sound ? run_impl<true>(node, pkt, state, scratch, executed)
                 : run_impl<false>(node, pkt, state, scratch, executed);
  }

  Pc entry_for(XfddId node) const;

  std::size_t size() const { return code_.size(); }
  bool empty() const { return code_.empty(); }

 private:
  template <bool Sound>
  Outcome run_impl(XfddId node, const Packet& pkt, Store& state,
                   Scratch& scratch, std::uint64_t* executed) const;

  std::vector<DInstr> code_;
  std::vector<DecodedExpr> exprs_;
  std::vector<std::pair<XfddId, Pc>> entries_;  // sorted by node id
};

// Network-wide flat xFDD — the classifier of the SoA burst datapaths.
//
// The whole diagram reachable from the root is flattened once into dense
// DNodes (hi/lo edges resolved to dense indices, prefix masks
// pre-computed, state operands interned as DecodedExpr slots with
// constants pre-evaluated, leaf write programs flattened into a contiguous
// op span in state_programs() order). It is not a per-switch interpreter:
// state tests of every owner are kept as kState nodes and leaf spans carry
// every variable's ops, so the consumers (BurstPipeline, the engine's
// free-running RTC loop, the ledger) classify the field prefix with
// classify_burst() and then attribute the state suffix to owners
// themselves.
class DirectXfdd {
 public:
  struct DOp {
    enum class Kind : std::uint8_t { kSet, kInc, kDec };
    Kind kind;
    StateVarId var = 0;
    std::int32_t index = -1, vexpr = -1;  // DecodedExpr ids
  };

  struct DNode {
    enum class Kind : std::uint8_t {
      kFVExact,
      kFVMask,
      kFVAny,
      kFF,
      kState,
      kLeaf,
    };
    Kind kind;
    FieldId f1 = 0, f2 = 0;
    std::uint32_t mask = 0;  // kFVMask
    Value value = 0;         // compare value (pre-masked for kFVMask)
    std::int32_t hi = -1, lo = -1;        // dense successor indices
    StateVarId var = 0;
    std::int32_t index = -1, vexpr = -1;  // DecodedExpr ids (kState)
    XfddId leaf = 0;                      // kLeaf: store id to report
    std::uint32_t ops_begin = 0, ops_end = 0;  // kLeaf: write span
  };

  // Flattens the diagram reachable from `root` and builds the field-prefix
  // step schedule classify_burst() walks.
  static DirectXfdd build_network(const XfddStore& store, XfddId root);

  DirectXfdd() = default;

  // ---- Batch classification over SoA bursts ----
  //
  // The field-only prefix of every path is switch- and state-independent
  // (the TestOrder invariant puts all field tests before any state test),
  // so a whole burst is classified per diagram level: each field node is
  // tested once for all its surviving lanes with a dense column kernel
  // (auto-vectorizable at plain -O2 — tools/ci.sh greps the compiler's
  // vectorization report for this TU), and the lane set partitions into
  // hi/lo survivors. Per lane the walk yields the first non-field node
  // (state test or leaf) and the number of field nodes visited — the
  // per-switch instruction contribution of the prefix.

  // SoA columns of one burst: lane-major [field][kLaneStride] values and
  // 0/1 presence, matching sim::PacketBurst's layout.
  struct BurstCols {
    const Value* vals = nullptr;
    const Value* present = nullptr;
  };

  // Column indices of every classification step's fields under a concrete
  // trace universe (-1 = field absent from the universe: the test fails
  // for every lane). Build once per (classifier, trace) pair.
  struct ClassifyPlan {
    std::vector<std::int32_t> col1, col2;
  };

  // Reusable per-run scratch; sized lazily to the step schedule.
  struct ClassifyScratch {
    std::vector<std::uint64_t> pending;
    alignas(64) Value pass[kLaneStride] = {};
  };

  ClassifyPlan prepare_classify(const std::vector<FieldId>& universe) const;

  // Classifies the lanes of `active` (bitmask): writes terminal[lane] =
  // dense index of the first non-field node on the lane's path and
  // instr[lane] = field nodes visited. Lanes outside `active` are left
  // untouched (instr is zeroed for all kLaneStride lanes).
  void classify_burst(const ClassifyPlan& plan, const BurstCols& cols,
                      std::uint64_t active, std::int32_t* terminal,
                      std::uint16_t* instr, ClassifyScratch& scratch) const;

  // Read-only structure access for the burst pipeline's suffix walk.
  const std::vector<DNode>& nodes() const { return nodes_; }
  const std::vector<DOp>& ops() const { return ops_; }
  const std::vector<DecodedExpr>& exprs() const { return exprs_; }
  std::int32_t dense_root() const { return root_dense_; }

  // Store id of a dense node. The engine's RTC burst path resumes the
  // switch's decoded program at the classify terminal, which DNode does
  // not carry for branch kinds.
  XfddId orig_id(std::int32_t dense) const {
    return dense_orig_[static_cast<std::size_t>(dense)];
  }

 private:
  // One field node in classification (topological) order: successors
  // resolve either to a later step (>= 0) or to a terminal encoded as
  // -(dense + 1).
  struct FieldStep {
    std::int32_t node = -1;  // dense index
    std::int32_t hi_step = -1, lo_step = -1;
  };

  void build_field_steps();

  std::vector<DNode> nodes_;  // reachable nodes only, densely indexed
  std::vector<DOp> ops_;      // flat pool of leaf write ops
  std::vector<DecodedExpr> exprs_;
  std::vector<XfddId> dense_orig_;  // dense -> store id
  std::vector<FieldStep> steps_;    // field-prefix schedule
  std::int32_t root_dense_ = -1;
};

}  // namespace netasm
}  // namespace snap
