#include "sim/shardplan.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "analysis/psmap.h"

namespace snap {
namespace sim {

namespace {

using EdgeMap = std::map<std::pair<int, int>, double>;

void add_edge(EdgeMap& edges, int sa, int sb, double w) {
  if (sa < 0 || sb < 0 || sa == sb) return;
  if (sa > sb) std::swap(sa, sb);
  edges[{sa, sb}] += w;
}

}  // namespace

ShardHint build_shard_hint(const XfddStore& store, XfddId root,
                           const Topology& topo, const Placement& placement,
                           const TestOrder& order,
                           const PacketStateMap* psmap) {
  ShardHint h;
  h.num_switches = topo.num_switches();
  h.switch_weight.assign(static_cast<std::size_t>(
                             std::max(h.num_switches, 0)),
                         0.0);
  if (h.num_switches <= 0) return h;

  // Base ingress work: every attached port feeds its switch classification
  // traffic regardless of state.
  for (PortId p : topo.ports()) {
    int sw = topo.port_switch(p);
    if (sw >= 0 && sw < h.num_switches) h.switch_weight[sw] += 1.0;
  }

  auto owner = [&](StateVarId v) {
    int sw = placement.at(v);
    return (sw >= 0 && sw < h.num_switches) ? sw : -1;
  };

  EdgeMap edges;

  // Diagram pass: memoized vars-below per node. A state test co-occurs in
  // some packet's conflict mask with every variable reachable below it
  // (the mask walk pushes both branches of a state test); a leaf's write
  // set co-occurs pairwise. Per-variable node counts double as the work
  // estimate for the variable's owner switch.
  std::map<XfddId, std::vector<StateVarId>> below;
  std::function<const std::vector<StateVarId>&(XfddId)> vars_below =
      [&](XfddId id) -> const std::vector<StateVarId>& {
    auto it = below.find(id);
    if (it != below.end()) return it->second;
    std::vector<StateVarId> vars;
    if (store.is_leaf(id)) {
      for (const auto& [var, ops] : store.leaf_actions(id).state_programs()) {
        vars.push_back(var);
        int sw = owner(var);
        if (sw >= 0) h.switch_weight[sw] += static_cast<double>(ops.size());
      }
      std::sort(vars.begin(), vars.end());
      for (std::size_t i = 0; i < vars.size(); ++i) {
        for (std::size_t j = i + 1; j < vars.size(); ++j) {
          add_edge(edges, owner(vars[i]), owner(vars[j]), 1.0);
        }
      }
    } else {
      const BranchNode& b = store.branch_node(id);
      const std::vector<StateVarId>& hi = vars_below(b.hi);
      {
        const std::vector<StateVarId>& lo = vars_below(b.lo);
        vars = hi;
        vars.insert(vars.end(), lo.begin(), lo.end());
      }
      if (const auto* st = std::get_if<TestState>(&b.test)) {
        int sw = owner(st->var);
        if (sw >= 0) h.switch_weight[sw] += 1.0;
        for (StateVarId u : vars) add_edge(edges, sw, owner(u), 1.0);
        vars.push_back(st->var);
      }
      std::sort(vars.begin(), vars.end());
      vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    }
    // std::map nodes are reference-stable, so the recursive calls above
    // cannot invalidate what we hand back here.
    return below.emplace(id, std::move(vars)).first->second;
  };
  vars_below(root);

  // Ingress-affinity pass: a flow entering at u with state set S walks
  // from u's switch to every owner of S — co-locating them removes the
  // cross-worker hop for that flow's whole mask. Weighted above the
  // co-occurrence edges because ingress affinity is per-flow-volume, not
  // per-diagram-node. psmap throws on programs whose inport tests are not
  // exact field-value tests; those programs keep co-occurrence edges only.
  const PacketStateMap* pm = psmap;
  PacketStateMap local;
  if (pm == nullptr) {
    try {
      local = packet_state_map(store, root, topo.ports(), order);
      pm = &local;
    } catch (...) {
      pm = nullptr;
    }
  }
  if (pm != nullptr) {
    for (const auto& [uv, vars] : pm->flow_states) {
      int isw = topo.port_switch(uv.first);
      for (StateVarId v : vars) add_edge(edges, isw, owner(v), 2.0);
    }
  }

  h.edges.reserve(edges.size());
  for (const auto& [key, w] : edges) {
    h.edges.push_back({key.first, key.second, w});
  }
  return h;
}

void score_plan(const ShardHint& hint, ShardPlan& plan) {
  plan.load.assign(static_cast<std::size_t>(std::max(plan.workers, 1)), 0.0);
  plan.cross_edges = plan.total_edges = 0;
  plan.cross_weight = plan.total_weight = 0.0;
  for (std::size_t sw = 0; sw < plan.worker.size(); ++sw) {
    double w = sw < hint.switch_weight.size() ? hint.switch_weight[sw] : 0.0;
    int wk = plan.worker[sw];
    if (wk >= 0 && wk < static_cast<int>(plan.load.size())) plan.load[wk] += w;
  }
  for (const ShardHint::Edge& e : hint.edges) {
    if (e.a >= static_cast<int>(plan.worker.size()) ||
        e.b >= static_cast<int>(plan.worker.size())) {
      continue;
    }
    ++plan.total_edges;
    plan.total_weight += e.w;
    if (plan.worker[e.a] != plan.worker[e.b]) {
      ++plan.cross_edges;
      plan.cross_weight += e.w;
    }
  }
}

ShardPlan plan_from_hint(const ShardHint& hint, int workers) {
  const int n = hint.num_switches;
  const int W = std::max(workers, 1);
  ShardPlan p;
  p.workers = W;
  p.mode = "locality";
  p.worker.assign(static_cast<std::size_t>(std::max(n, 0)), 0);
  if (n <= 0 || W == 1) {
    score_plan(hint, p);
    return p;
  }

  // Effective node weights: all-zero hints (stateless programs with no
  // attached ports) degrade to uniform weights so the balance cap still
  // spreads switches.
  std::vector<double> sw_w(hint.switch_weight);
  sw_w.resize(static_cast<std::size_t>(n), 0.0);
  double total = std::accumulate(sw_w.begin(), sw_w.end(), 0.0);
  if (total <= 0.0) {
    std::fill(sw_w.begin(), sw_w.end(), 1.0);
    total = static_cast<double>(n);
  }
  // Connected components of the conflict graph are the atomic placement
  // units: a cut edge inside a component costs a cross-worker transfer
  // (or breaks confinement) every time a flow touches it, while whole
  // components are independent and can balance freely. Dense workloads
  // whose conflict graph is one big cluster deliberately skew the load —
  // confining the cluster to one worker is the whole point; the stateless
  // remainder balances the other workers.
  std::vector<int> comp(static_cast<std::size_t>(n));
  std::iota(comp.begin(), comp.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (comp[x] != x) x = comp[x] = comp[comp[x]];
    return x;
  };
  std::vector<double> incident(static_cast<std::size_t>(n), 0.0);
  for (const ShardHint::Edge& e : hint.edges) {
    if (e.a >= n || e.b >= n) continue;
    incident[e.a] += e.w;
    incident[e.b] += e.w;
    int ra = find(e.a), rb = find(e.b);
    if (ra != rb) comp[std::max(ra, rb)] = std::min(ra, rb);
  }
  std::map<int, std::vector<int>> groups;  // root -> members, deterministic
  for (int sw = 0; sw < n; ++sw) groups[find(sw)].push_back(sw);

  // Longest-processing-time over components: heaviest first onto the
  // least-loaded worker (ties: lowest worker index; determinism).
  std::vector<const std::vector<int>*> order;
  order.reserve(groups.size());
  for (const auto& [root, members] : groups) order.push_back(&members);
  auto weight_of = [&](const std::vector<int>& members) {
    double w = 0.0;
    for (int sw : members) w += sw_w[sw];
    return w;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const std::vector<int>* a, const std::vector<int>* b) {
                     return weight_of(*a) > weight_of(*b);
                   });
  std::vector<double> load(static_cast<std::size_t>(W), 0.0);
  std::vector<int> count(static_cast<std::size_t>(W), 0);
  for (const std::vector<int>* members : order) {
    int best = 0;
    for (int wk = 1; wk < W; ++wk) {
      if (load[wk] < load[best]) best = wk;
    }
    for (int sw : *members) {
      p.worker[sw] = best;
      ++count[best];
    }
    load[best] += weight_of(*members);
  }

  // Fix-up: the engine spawns one thread per worker, so leave no worker
  // without a switch when there are enough to go around. Donate the
  // switch with the least conflict attachment (fewest cut edges created),
  // lightest first, from the most loaded multi-switch worker.
  if (W <= n) {
    for (int wk = 0; wk < W; ++wk) {
      while (count[wk] == 0) {
        int donor = -1;
        for (int d = 0; d < W; ++d) {
          if (count[d] >= 2 && (donor < 0 || load[d] > load[donor])) donor = d;
        }
        if (donor < 0) break;
        int pick = -1;
        for (int sw = 0; sw < n; ++sw) {
          if (p.worker[sw] != donor) continue;
          if (pick < 0 || incident[sw] < incident[pick] ||
              (incident[sw] == incident[pick] && sw_w[sw] < sw_w[pick])) {
            pick = sw;
          }
        }
        p.worker[pick] = wk;
        load[donor] -= sw_w[pick];
        load[wk] += sw_w[pick];
        --count[donor];
        ++count[wk];
      }
    }
  }

  score_plan(hint, p);
  return p;
}

std::string ShardPlan::to_json() const {
  std::ostringstream os;
  os << "{\"mode\":\"" << mode << "\",\"workers\":" << workers << ",\"map\":[";
  for (std::size_t i = 0; i < worker.size(); ++i) {
    os << (i ? "," : "") << worker[i];
  }
  os << "],\"load\":[";
  for (std::size_t i = 0; i < load.size(); ++i) {
    os << (i ? "," : "") << load[i];
  }
  os << "],\"cross_edges\":" << cross_edges
     << ",\"total_edges\":" << total_edges
     << ",\"cross_weight\":" << cross_weight
     << ",\"total_weight\":" << total_weight << "}";
  return os.str();
}

}  // namespace sim
}  // namespace snap
