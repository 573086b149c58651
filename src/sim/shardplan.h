// Conflict-locality shard planning: the compiler-computed switch→worker
// map the traffic engine runs with.
//
// PR 9's cycle accounting showed deterministic multi-worker mode is
// dispatch-bound: every packet whose conflict mask spans switches owned by
// different workers forfeits the confined fast path and pays a
// scheduler↔worker round trip per gate acquisition. The compiler already
// knows which variables co-occur (the diagram's state tests and leaf write
// sets) and where each variable lives (the MILP placement) — this module
// turns that knowledge into a placement artifact:
//
//   - ShardHint: an undirected weighted graph over switches. An edge
//     (a, b) means "packets exist whose conflict mask touches state on
//     both a and b" (diagram co-occurrence) or "flows ingress at a and
//     touch state placed on b" (psmap affinity). Node weights estimate
//     per-switch work (attached ports + diagram nodes referencing the
//     switch's variables).
//   - ShardPlan: a concrete switch→worker assignment plus its quality
//     metrics (per-worker load, conflict edges cut). Built greedily:
//     heaviest switches first, each joining the worker with the largest
//     incident-edge affinity that still respects a 1.25× balance cap.
//
// The hint rides on RuleDelta (computed once per compile in the Session),
// so the engine never re-derives compiler analyses on its control path;
// engines fed a bare Network derive their own hint from the same inputs.
// Plans are frozen for a run — a mid-run reassignment would hand one
// switch's Store to two workers — so epoch swaps re-score the live plan
// against the new placement and report drift instead of re-sharding.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "milp/result.h"
#include "topo/graph.h"
#include "xfdd/order.h"
#include "xfdd/xfdd.h"

namespace snap {
namespace sim {

// Compiler-side sharding inputs: per-switch work estimates plus the
// conflict-locality graph. Edges are unique (a < b) with merged weights.
struct ShardHint {
  struct Edge {
    int a = 0, b = 0;
    double w = 0.0;
  };

  int num_switches = 0;
  std::vector<double> switch_weight;  // indexed by switch id
  std::vector<Edge> edges;
};

// A concrete switch→worker assignment plus quality metrics against the
// hint it was scored with (cross_* count hint edges whose endpoints landed
// on different workers — each is a potential scheduler round trip).
struct ShardPlan {
  std::vector<int> worker;  // indexed by switch id
  int workers = 0;
  std::string mode;  // "locality" | "explicit"

  std::vector<double> load;  // per-worker summed switch weight
  std::size_t cross_edges = 0, total_edges = 0;
  double cross_weight = 0.0, total_weight = 0.0;

  std::string to_json() const;
};

// Builds the hint from the compiled diagram, the topology, and the MILP
// placement. `psmap` (when the caller already has one) supplies the
// ingress-affinity edges; passing nullptr recomputes it, and programs whose
// inport tests psmap rejects simply contribute co-occurrence edges only —
// this function never throws. Unplaced variables (placement.at == -1) are
// skipped.
ShardHint build_shard_hint(const XfddStore& store, XfddId root,
                           const Topology& topo, const Placement& placement,
                           const TestOrder& order,
                           const PacketStateMap* psmap = nullptr);

// Greedy locality plan (see file comment). Deterministic: ties break by
// worker index, switch order by (incident weight, id). Every worker gets
// at least one switch when workers <= num_switches.
ShardPlan plan_from_hint(const ShardHint& hint, int workers);

// Recomputes plan.load / cross metrics against `hint` (for explicit
// plans, and for re-scoring a frozen plan after an epoch swap's
// re-placement).
void score_plan(const ShardHint& hint, ShardPlan& plan);

}  // namespace sim
}  // namespace snap
