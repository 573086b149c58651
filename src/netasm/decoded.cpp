#include "netasm/decoded.h"

#include <algorithm>
#include <map>

#include "lang/ast.h"  // kExactMatch
#include "sim/soundness.h"  // pure observer hooks (see its layering note)
#include "util/status.h"

namespace snap {
namespace netasm {

namespace {

// Decode-time only; linear-ish via a local cache kept across calls would
// need state — instead dedupe structurally against what's already there.
// Programs have few distinct operands, so the scan is cheap and runs once
// per deployment, never per packet. Shared by the program decoder and the
// flat-diagram builder.
std::int32_t intern_expr(std::vector<DecodedExpr>& exprs, const Expr& e) {
  DecodedExpr d;
  d.prefill.assign(e.size(), 0);
  std::uint16_t slot = 0;
  for (const Atom& a : e.atoms()) {
    if (a.is_value()) {
      d.prefill[slot] = a.value();
    } else {
      d.fields.emplace_back(slot, a.field());
    }
    ++slot;
  }
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i].prefill == d.prefill && exprs[i].fields == d.fields) {
      return static_cast<std::int32_t>(i);
    }
  }
  exprs.push_back(std::move(d));
  return static_cast<std::int32_t>(exprs.size()) - 1;
}

}  // namespace

DecodedProgram DecodedProgram::decode(const Program& p) {
  DecodedProgram out;
  const std::size_t n = p.code.size();

  // Pass 1: map every original pc to its compacted pc. Atomic markers are
  // dropped; they forward to the next retained instruction (the assembler
  // never ends a program with a marker — ILeafDone always follows).
  std::vector<Pc> new_pc(n, 0);
  std::vector<bool> retained(n, false);
  Pc next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    retained[i] = !std::holds_alternative<IAtomBegin>(p.code[i]) &&
                  !std::holds_alternative<IAtomEnd>(p.code[i]);
    if (retained[i]) new_pc[i] = next++;
  }
  // A marker's pc resolves to the first retained instruction after it.
  for (std::size_t i = n; i-- > 0;) {
    if (!retained[i]) {
      new_pc[i] = (i + 1 < n) ? new_pc[i + 1] : next;
    }
  }

  // Pass 2: emit compacted instructions with remapped targets.
  out.code_.reserve(static_cast<std::size_t>(next));
  for (std::size_t i = 0; i < n; ++i) {
    if (!retained[i]) continue;
    DInstr d{};
    std::visit(
        [&](const auto& ins) {
          using T = std::decay_t<decltype(ins)>;
          if constexpr (std::is_same_v<T, IBranchFieldValue>) {
            d.f1 = ins.field;
            d.on_true = new_pc[static_cast<std::size_t>(ins.on_true)];
            d.on_false = new_pc[static_cast<std::size_t>(ins.on_false)];
            if (ins.prefix_len == kExactMatch) {
              d.op = Op::kBranchFVExact;
              d.value = ins.value;
            } else if (ins.prefix_len == 0) {
              d.op = Op::kBranchFVAny;
            } else {
              d.op = Op::kBranchFVMask;
              d.mask = ins.prefix_len >= 32
                           ? 0xffffffffu
                           : ~((1u << (32 - ins.prefix_len)) - 1u);
              d.value = static_cast<Value>(
                  static_cast<std::uint32_t>(ins.value) & d.mask);
            }
          } else if constexpr (std::is_same_v<T, IBranchFieldField>) {
            d.op = Op::kBranchFF;
            d.f1 = ins.f1;
            d.f2 = ins.f2;
            d.on_true = new_pc[static_cast<std::size_t>(ins.on_true)];
            d.on_false = new_pc[static_cast<std::size_t>(ins.on_false)];
          } else if constexpr (std::is_same_v<T, IBranchState>) {
            d.op = Op::kBranchState;
            d.var = ins.var;
            d.index = intern_expr(out.exprs_, ins.index);
            d.vexpr = intern_expr(out.exprs_, ins.value);
            d.on_true = new_pc[static_cast<std::size_t>(ins.on_true)];
            d.on_false = new_pc[static_cast<std::size_t>(ins.on_false)];
          } else if constexpr (std::is_same_v<T, IEscape>) {
            d.op = Op::kEscape;
            d.node = ins.node;
            d.var = ins.var;
          } else if constexpr (std::is_same_v<T, IStateSet>) {
            d.op = Op::kStateSet;
            d.var = ins.var;
            d.index = intern_expr(out.exprs_, ins.index);
            d.vexpr = intern_expr(out.exprs_, ins.value);
          } else if constexpr (std::is_same_v<T, IStateInc>) {
            d.op = Op::kStateInc;
            d.var = ins.var;
            d.index = intern_expr(out.exprs_, ins.index);
          } else if constexpr (std::is_same_v<T, IStateDec>) {
            d.op = Op::kStateDec;
            d.var = ins.var;
            d.index = intern_expr(out.exprs_, ins.index);
          } else if constexpr (std::is_same_v<T, ILeafDone>) {
            d.op = Op::kLeafDone;
            d.node = ins.leaf;
          } else {
            static_assert(std::is_same_v<T, IAtomBegin> ||
                          std::is_same_v<T, IAtomEnd>);
          }
        },
        p.code[i]);
    out.code_.push_back(d);
  }

  out.entries_.reserve(p.entry.size());
  for (const auto& [node, pc] : p.entry) {
    out.entries_.emplace_back(node,
                              new_pc[static_cast<std::size_t>(pc)]);
  }
  std::sort(out.entries_.begin(), out.entries_.end());
  return out;
}

Pc DecodedProgram::entry_for(XfddId node) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), node,
      [](const std::pair<XfddId, Pc>& e, XfddId n) { return e.first < n; });
  SNAP_CHECK(it != entries_.end() && it->first == node,
             "no program entry for xFDD node");
  return it->second;
}

template <bool Sound>
DecodedProgram::Outcome DecodedProgram::run_impl(
    XfddId node, const Packet& pkt, Store& state, Scratch& scratch,
    std::uint64_t* executed) const {
  Pc pc = entry_for(node);
  std::uint64_t count = 0;
  const DInstr* code = code_.data();
  for (;;) {
    // Per-instruction, so debug-only; jump targets are validated once at
    // decode time (they come from the assembler's own pc map).
    SNAP_DCHECK(pc >= 0 && pc < static_cast<Pc>(code_.size()),
                "program counter out of range");
    const DInstr& i = code[static_cast<std::size_t>(pc)];
    ++count;
    switch (i.op) {
      case Op::kBranchFVExact: {
        auto v = pkt.get(i.f1);
        pc = (v && *v == i.value) ? i.on_true : i.on_false;
        break;
      }
      case Op::kBranchFVMask: {
        auto v = pkt.get(i.f1);
        pc = (v && (static_cast<std::uint32_t>(*v) & i.mask) ==
                       static_cast<std::uint32_t>(i.value))
                 ? i.on_true
                 : i.on_false;
        break;
      }
      case Op::kBranchFVAny: {
        pc = pkt.has(i.f1) ? i.on_true : i.on_false;
        break;
      }
      case Op::kBranchFF: {
        auto v1 = pkt.get(i.f1);
        auto v2 = pkt.get(i.f2);
        pc = (v1 && v2 && *v1 == *v2) ? i.on_true : i.on_false;
        break;
      }
      case Op::kBranchState: {
        if constexpr (Sound) sim::note_state_access(i.var);
        bool pass =
            exprs_[static_cast<std::size_t>(i.index)].eval_into(
                pkt, scratch.index) &&
            exprs_[static_cast<std::size_t>(i.vexpr)].eval_into(
                pkt, scratch.value) &&
            scratch.value.size() == 1 &&
            state.get(i.var, scratch.index) == scratch.value[0];
        pc = pass ? i.on_true : i.on_false;
        break;
      }
      case Op::kEscape:
        if (executed) *executed += count;
        return {Outcome::kStuck, i.node, i.var};
      case Op::kStateSet: {
        if constexpr (Sound) sim::note_state_access(i.var);
        if (!exprs_[static_cast<std::size_t>(i.index)].eval_into(
                pkt, scratch.index) ||
            !exprs_[static_cast<std::size_t>(i.vexpr)].eval_into(
                pkt, scratch.value) ||
            scratch.value.size() != 1) {
          throw CompileError("state update on " + state_var_name(i.var) +
                             " references an absent field");
        }
        state.set(i.var, scratch.index, scratch.value[0]);
        ++pc;
        break;
      }
      case Op::kStateInc:
      case Op::kStateDec: {
        if constexpr (Sound) sim::note_state_access(i.var);
        if (!exprs_[static_cast<std::size_t>(i.index)].eval_into(
                pkt, scratch.index)) {
          throw CompileError("state increment on " + state_var_name(i.var) +
                             " references an absent field");
        }
        Value cur = state.get(i.var, scratch.index);
        state.set(i.var, scratch.index,
                  i.op == Op::kStateInc ? cur + 1 : cur - 1);
        ++pc;
        break;
      }
      case Op::kLeafDone:
        if (executed) *executed += count;
        return {Outcome::kLeaf, i.node, 0};
    }
  }
}

// Both soundness instantiations: armed (the historical behavior, one TLS
// load per state instruction) and compiled-out (release hot path).
template DecodedProgram::Outcome DecodedProgram::run_impl<true>(
    XfddId, const Packet&, Store&, Scratch&, std::uint64_t*) const;
template DecodedProgram::Outcome DecodedProgram::run_impl<false>(
    XfddId, const Packet&, Store&, Scratch&, std::uint64_t*) const;

DirectXfdd DirectXfdd::build_network(const XfddStore& store, XfddId root) {
  DirectXfdd out;
  // First pass over the reachable diagram: assign dense indices in
  // first-visit DFS order.
  std::map<XfddId, std::int32_t> index;
  std::vector<XfddId> order;
  std::vector<XfddId> stack{root};
  while (!stack.empty()) {
    XfddId id = stack.back();
    stack.pop_back();
    if (index.count(id)) continue;
    index.emplace(id, static_cast<std::int32_t>(order.size()));
    order.push_back(id);
    if (store.is_leaf(id)) continue;
    const BranchNode& b = store.branch_node(id);
    stack.push_back(b.lo);
    stack.push_back(b.hi);
  }
  // Second pass: flatten. hi/lo become dense indices; leaf write programs
  // flatten into the shared op pool in exactly the order the assembler
  // emits them (state_programs() order), so instruction counts and
  // store-mutation order match the per-switch programs.
  out.nodes_.reserve(order.size());
  for (XfddId id : order) {
    DNode n{};
    if (store.is_leaf(id)) {
      n.kind = DNode::Kind::kLeaf;
      n.leaf = id;
      n.ops_begin = static_cast<std::uint32_t>(out.ops_.size());
      for (const auto& [var, prog] :
           store.leaf_actions(id).state_programs()) {
        for (const Action& op : prog) {
          DOp d{};
          std::visit(
              [&](const auto& a) {
                using T = std::decay_t<decltype(a)>;
                if constexpr (std::is_same_v<T, ActStateSet>) {
                  d.kind = DOp::Kind::kSet;
                  d.var = a.var;
                  d.index = intern_expr(out.exprs_, a.index);
                  d.vexpr = intern_expr(out.exprs_, a.value);
                } else if constexpr (std::is_same_v<T, ActStateInc>) {
                  d.kind = DOp::Kind::kInc;
                  d.var = a.var;
                  d.index = intern_expr(out.exprs_, a.index);
                } else if constexpr (std::is_same_v<T, ActStateDec>) {
                  d.kind = DOp::Kind::kDec;
                  d.var = a.var;
                  d.index = intern_expr(out.exprs_, a.index);
                } else {
                  throw InternalError("field mod among state programs");
                }
              },
              op);
          out.ops_.push_back(d);
        }
      }
      n.ops_end = static_cast<std::uint32_t>(out.ops_.size());
    } else {
      const BranchNode& b = store.branch_node(id);
      n.hi = index.at(b.hi);
      n.lo = index.at(b.lo);
      if (const auto* fv = std::get_if<TestFV>(&b.test)) {
        n.f1 = fv->field;
        if (fv->prefix_len == kExactMatch) {
          n.kind = DNode::Kind::kFVExact;
          n.value = fv->value;
        } else if (fv->prefix_len == 0) {
          n.kind = DNode::Kind::kFVAny;
        } else {
          n.kind = DNode::Kind::kFVMask;
          n.mask = fv->prefix_len >= 32
                       ? 0xffffffffu
                       : ~((1u << (32 - fv->prefix_len)) - 1u);
          n.value = static_cast<Value>(
              static_cast<std::uint32_t>(fv->value) & n.mask);
        }
      } else if (const auto* ff = std::get_if<TestFF>(&b.test)) {
        n.kind = DNode::Kind::kFF;
        n.f1 = ff->f1;
        n.f2 = ff->f2;
      } else {
        const auto& st = std::get<TestState>(b.test);
        n.kind = DNode::Kind::kState;
        n.var = st.var;
        n.index = intern_expr(out.exprs_, st.index);
        n.vexpr = intern_expr(out.exprs_, st.value);
      }
    }
    out.nodes_.push_back(n);
  }
  out.dense_orig_ = std::move(order);  // dense index -> store id
  out.root_dense_ = index.at(root);
  out.build_field_steps();
  return out;
}

void DirectXfdd::build_field_steps() {
  steps_.clear();
  if (root_dense_ < 0 || nodes_.empty()) return;
  auto is_field = [&](std::int32_t dense) {
    DNode::Kind k = nodes_[dense].kind;
    return k == DNode::Kind::kFVExact || k == DNode::Kind::kFVMask ||
           k == DNode::Kind::kFVAny || k == DNode::Kind::kFF;
  };
  if (!is_field(root_dense_)) return;  // empty schedule: root is terminal
  // Reverse post-order DFS over the field-only prefix: for any field edge
  // n -> m the traversal finishes m before n, so reversing the post list
  // places every node before its field successors — the topological order
  // classify_burst() sweeps.
  std::vector<std::uint8_t> visited(nodes_.size(), 0);
  std::vector<std::int32_t> post;
  std::vector<std::pair<std::int32_t, int>> stack;  // (node, next child)
  stack.emplace_back(root_dense_, 0);
  visited[root_dense_] = 1;
  while (!stack.empty()) {
    auto& [cur, child] = stack.back();
    const DNode& n = nodes_[cur];
    std::int32_t next = -1;
    while (child < 2) {
      std::int32_t c = child == 0 ? n.hi : n.lo;
      ++child;
      if (is_field(c) && !visited[c]) {
        next = c;
        break;
      }
    }
    if (next >= 0) {
      visited[next] = 1;
      stack.emplace_back(next, 0);
    } else {
      post.push_back(cur);
      stack.pop_back();
    }
  }
  std::vector<std::int32_t> step_of(nodes_.size(), -1);
  steps_.resize(post.size());
  for (std::size_t i = 0; i < post.size(); ++i) {
    step_of[post[post.size() - 1 - i]] = static_cast<std::int32_t>(i);
  }
  for (std::size_t i = 0; i < post.size(); ++i) {
    std::int32_t dense = post[post.size() - 1 - i];
    const DNode& n = nodes_[dense];
    FieldStep& s = steps_[i];
    s.node = dense;
    s.hi_step = is_field(n.hi) ? step_of[n.hi] : -(n.hi + 1);
    s.lo_step = is_field(n.lo) ? step_of[n.lo] : -(n.lo + 1);
  }
}

}  // namespace netasm
}  // namespace snap
