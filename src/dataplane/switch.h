// A software switch executing NetASM programs (§5).
//
// The switch holds the state tables of the variables placed on it and runs
// its program from any xFDD entry point (the SNAP-header's node id). State
// expressions are input-relative, so programs evaluate them against the
// packet as it entered the OBS. Execution ends in one of two outcomes:
// stuck on a foreign state variable (the forwarding layer carries the
// packet to that variable's switch) or a resolved leaf (local writes were
// applied atomically; the forwarding layer completes remaining writes and
// egress).
//
// The program is decoded once per install (netasm/decoded.h) and the
// decoded form is the only interpreter: Network::inject runs it here, and
// the sim engine's epoch snapshots share the same immutable object.
#pragma once

#include <memory>

#include "lang/eval.h"
#include "netasm/decoded.h"
#include "netasm/isa.h"

namespace snap {

class SoftwareSwitch {
 public:
  SoftwareSwitch(int id, const netasm::Program& program) : id_(id) {
    install(program);
  }

  using Outcome = netasm::DecodedProgram::Outcome;

  // Resumes processing at the entry for `node`.
  Outcome run(XfddId node, const Packet& pkt) {
    return decoded_->run(node, pkt, state_, scratch_, &executed_,
                         /*sound=*/false);
  }

  // Replaces the program in place (a rule-delta update). State tables are
  // left alone — the caller decides what survives re-placement.
  void install(const netasm::Program& program) {
    decoded_ = std::make_shared<const netasm::DecodedProgram>(
        netasm::DecodedProgram::decode(program));
  }

  int id() const { return id_; }
  // The decoded program, shared: a live engine epoch keeps running the one
  // it snapshotted after install() swaps in the next.
  const std::shared_ptr<const netasm::DecodedProgram>& decoded() const {
    return decoded_;
  }
  Store& state() { return state_; }
  const Store& state() const { return state_; }

  // Number of instructions executed since construction or the last
  // reset_stats() (statistics).
  std::uint64_t instructions_executed() const { return executed_; }

  // Zeroes the instruction counter. Network::apply calls this for switches
  // whose program a rule delta replaced, so per-event instruction stats are
  // not skewed by work done under the previous program.
  void reset_stats() { executed_ = 0; }

  // Folds externally-counted instructions (the sim engine and the burst
  // pipeline count per thread, not through run()) into the counter.
  void add_executed(std::uint64_t n) { executed_ += n; }

 private:
  int id_;
  std::shared_ptr<const netasm::DecodedProgram> decoded_;
  netasm::DecodedProgram::Scratch scratch_;
  Store state_;
  std::uint64_t executed_ = 0;
};

}  // namespace snap
