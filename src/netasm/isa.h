// A NetASM-like instruction set (Shahbaz & Feamster [32]) — the narrow
// waist between the SNAP compiler and programmable switches (§5).
//
// Each switch runs a program compiled from its per-switch slice of the
// policy xFDD. Branch instructions jump on packet-field or state-table
// tests; state instructions mutate the switch's local key/value tables
// inside atomic regions; escape instructions hand the packet back to the
// forwarding layer when processing needs a state variable stored elsewhere
// (the packet's SNAP-header records how far evaluation progressed, §4.5).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "lang/expr.h"
#include "xfdd/xfdd.h"

namespace snap {
namespace netasm {

// Jump targets are instruction indices within the program.
using Pc = std::int32_t;

// Instructions are equality-comparable so rule deltas (rulegen/delta.h) can
// tell changed programs from redeployments of the identical program.
struct IBranchFieldValue {
  FieldId field;
  Value value;
  int prefix_len;
  Pc on_true;
  Pc on_false;
  bool operator==(const IBranchFieldValue&) const = default;
};

struct IBranchFieldField {
  FieldId f1, f2;
  Pc on_true;
  Pc on_false;
  bool operator==(const IBranchFieldField&) const = default;
};

// Look up the local table of `var` at the evaluated index and compare.
struct IBranchState {
  StateVarId var;
  Expr index;
  Expr value;
  Pc on_true;
  Pc on_false;
  bool operator==(const IBranchState&) const = default;
};

// Processing is stuck on a state variable stored on another switch: record
// the xFDD node in the SNAP-header and let the forwarding layer carry the
// packet to `var`'s switch.
struct IEscape {
  XfddId node;
  StateVarId var;
  bool operator==(const IEscape&) const = default;
};

struct IStateSet {
  StateVarId var;
  Expr index;
  Expr value;
  bool operator==(const IStateSet&) const = default;
};
struct IStateInc {
  StateVarId var;
  Expr index;
  bool operator==(const IStateInc&) const = default;
};
struct IStateDec {
  StateVarId var;
  Expr index;
  bool operator==(const IStateDec&) const = default;
};

// Atomic region delimiters around multi-table updates (NetASM supports
// atomic execution of instruction blocks; our single-threaded switch makes
// these annotations, but they are emitted and checked for balance).
struct IAtomBegin {
  bool operator==(const IAtomBegin&) const = default;
};
struct IAtomEnd {
  bool operator==(const IAtomEnd&) const = default;
};

// Evaluation reached leaf `leaf` and this switch has applied its local
// writes; the forwarding layer takes over (remaining writes, then egress).
struct ILeafDone {
  XfddId leaf;
  bool operator==(const ILeafDone&) const = default;
};

using Instr =
    std::variant<IBranchFieldValue, IBranchFieldField, IBranchState, IEscape,
                 IStateSet, IStateInc, IStateDec, IAtomBegin, IAtomEnd,
                 ILeafDone>;

struct Program {
  std::vector<Instr> code;
  // Entry point per xFDD node id (resume table, §4.5's per-switch split).
  std::map<XfddId, Pc> entry;

  std::string disassemble() const;

  // Deterministic compilation makes identical deployments bitwise equal, so
  // structural equality is exactly "this switch needs no update".
  bool operator==(const Program&) const = default;
};

std::string to_string(const Instr& instr);

}  // namespace netasm
}  // namespace snap
