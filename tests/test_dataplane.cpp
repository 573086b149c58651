// NetASM assembly and the distributed data plane: per-switch programs,
// stuck-packet walks, distributed leaf writes, and end-to-end equivalence
// with the OBS eval oracle (including a randomized trace property test).
#include <gtest/gtest.h>

#include "analysis/depgraph.h"
#include "analysis/psmap.h"
#include "dataplane/network.h"
#include "lang/eval.h"
#include "milp/scalable.h"
#include "netasm/assembler.h"
#include "rulegen/split.h"
#include "topo/gen.h"
#include "util/rng.h"
#include "util/status.h"
#include "xfdd/compose.h"

namespace snap {
namespace {

using namespace snap::dsl;

// Compiles program -> xFDD -> placement/routing -> Network over `topo`.
struct Deployment {
  XfddStore store;
  XfddId root;
  DependencyGraph deps;
  TestOrder order;
  PacketStateMap psmap;
  PlacementAndRouting pr;
  std::unique_ptr<Network> net;

  Deployment(const PolPtr& p, const Topology& topo, const TrafficMatrix& tm)
      : deps(DependencyGraph::build(p)), order(deps.test_order()) {
    root = to_xfdd(store, order, p);
    psmap = packet_state_map(store, root, topo.ports(), order);
    pr = solve_scalable(topo, tm, psmap, deps);
    net = std::make_unique<Network>(topo, store, root, pr.placement,
                                    pr.routing, order);
  }
};

TrafficMatrix uniform_tm(const Topology& topo, double load) {
  TrafficMatrix tm;
  const auto& ports = topo.ports();
  double per = load / (ports.size() * (ports.size() - 1));
  for (PortId u : ports) {
    for (PortId v : ports) {
      if (u != v) tm.set_demand(u, v, per);
    }
  }
  return tm;
}

PolPtr two_port_egress() {
  return ite(test_cidr("dstip", "10.0.1.0/24"), mod("outport", 1),
             ite(test_cidr("dstip", "10.0.2.0/24"), mod("outport", 2),
                 filter(drop())));
}

Value ip(std::uint32_t a, std::uint32_t b, std::uint32_t c,
         std::uint32_t d) {
  return static_cast<Value>((a << 24) | (b << 16) | (c << 8) | d);
}

TEST(Netasm, ProgramHasEntriesForAllNodes) {
  XfddStore s;
  TestOrder order;
  auto p = ite(stest("na-cnt", idx("a"), lit(0)), sinc("na-cnt", idx("a")),
               filter(drop())) >>
           two_port_egress();
  XfddId d = to_xfdd(s, order, p);
  Placement pl;
  pl.switch_of[state_var_id("na-cnt")] = 0;
  netasm::Program own = netasm::assemble(s, d, pl, 0);
  netasm::Program other = netasm::assemble(s, d, pl, 1);
  EXPECT_FALSE(own.code.empty());
  // The owner resolves the state test; the other switch escapes on it.
  auto count_kind = [](const netasm::Program& pr, auto pred) {
    return std::count_if(pr.code.begin(), pr.code.end(), pred);
  };
  EXPECT_GT(count_kind(own,
                       [](const netasm::Instr& i) {
                         return std::holds_alternative<netasm::IBranchState>(
                                    i) ||
                                std::holds_alternative<netasm::IStateInc>(i);
                       }),
            0);
  EXPECT_GT(count_kind(other,
                       [](const netasm::Instr& i) {
                         return std::holds_alternative<netasm::IEscape>(i);
                       }),
            0);
  // Disassembly is printable and mentions the state variable.
  EXPECT_NE(own.disassemble().find("na-cnt"), std::string::npos);
}

TEST(Netasm, AtomicRegionsBalanced) {
  XfddStore s;
  TestOrder order;
  auto p = atomic(sset("na-x", idx("a"), lit(1)) >>
                  sset("na-y", idx("a"), lit(2))) >>
           two_port_egress();
  XfddId d = to_xfdd(s, order, p);
  Placement pl;
  pl.switch_of[state_var_id("na-x")] = 0;
  pl.switch_of[state_var_id("na-y")] = 0;
  netasm::Program prog = netasm::assemble(s, d, pl, 0);
  int depth = 0;
  for (const auto& i : prog.code) {
    if (std::holds_alternative<netasm::IAtomBegin>(i)) ++depth;
    if (std::holds_alternative<netasm::IAtomEnd>(i)) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(SplitStats, StateWorkOnlyAtOwners) {
  XfddStore s;
  TestOrder order;
  auto p = ite(stest("sp-a", idx("srcip"), lit(1)), sinc("sp-b", idx("srcip")),
               filter(id())) >>
           two_port_egress();
  XfddId d = to_xfdd(s, order, p);
  Placement pl;
  pl.switch_of[state_var_id("sp-a")] = 1;
  pl.switch_of[state_var_id("sp-b")] = 2;
  auto stats = split_stats(s, d, pl, 4);
  EXPECT_GE(stats[1].state_tests, 1u);
  EXPECT_EQ(stats[2].state_tests, 0u);
  EXPECT_GT(stats[2].state_writes, 0u);
  EXPECT_EQ(stats[0].state_tests, 0u);
  EXPECT_GT(stats[0].escapes, 0u);
  EXPECT_EQ(stats[3].state_writes, 0u);
}

TEST(Dataplane, StatelessForwarding) {
  Topology topo = make_figure2_campus();
  auto p = ite(test_cidr("dstip", "10.0.1.0/24"), mod("outport", 1),
               ite(test_cidr("dstip", "10.0.6.0/24"), mod("outport", 6),
                   filter(drop())));
  Deployment dep(p, topo, uniform_tm(topo, 6.0));
  Packet pkt{{"dstip", ip(10, 0, 6, 9)}, {"srcip", ip(10, 0, 1, 4)}};
  auto out = dep.net->inject(1, pkt);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outport, 6);
  EXPECT_EQ(out[0].packet.get("outport"), 6);
  // Dropped traffic emits nothing.
  Packet unroutable{{"dstip", ip(10, 0, 3, 9)}};
  EXPECT_TRUE(dep.net->inject(1, unroutable).empty());
}

TEST(Dataplane, StateUpdatesLandOnPlacedSwitch) {
  Topology topo = make_figure2_campus();
  auto p = sinc("dp-cnt", idx("inport")) >> two_port_egress();
  Deployment dep(p, topo, uniform_tm(topo, 6.0));
  Packet pkt{{"dstip", ip(10, 0, 1, 1)}, {"inport", 3}};
  auto out = dep.net->inject(3, pkt);
  ASSERT_EQ(out.size(), 1u);
  StateVarId cnt = state_var_id("dp-cnt");
  int owner = dep.pr.placement.at(cnt);
  EXPECT_EQ(dep.net->switch_at(owner).state().get(cnt, {3}), 1);
  // No other switch holds the variable.
  for (int swi = 0; swi < topo.num_switches(); ++swi) {
    if (swi != owner) {
      EXPECT_EQ(dep.net->switch_at(swi).state().get(cnt, {3}), 0);
    }
  }
}

TEST(Dataplane, MulticastCopies) {
  Topology topo = make_figure2_campus();
  auto p = mod("outport", 1) + mod("outport", 2);
  Deployment dep(p, topo, uniform_tm(topo, 6.0));
  Packet pkt{{"dstip", ip(10, 0, 9, 9)}};
  auto out = dep.net->inject(4, pkt);
  ASSERT_EQ(out.size(), 2u);
  std::set<PortId> ports{out[0].outport, out[1].outport};
  EXPECT_EQ(ports, (std::set<PortId>{1, 2}));
}

TEST(Dataplane, WritesOnDropPathStillApplied) {
  // UDP-flood style: count, then drop over threshold.
  Topology topo = make_figure2_campus();
  auto p = sinc("dp-udp", idx("srcip")) >>
           ite(stest("dp-udp", idx("srcip"), lit(3)), filter(drop()),
               two_port_egress());
  Deployment dep(p, topo, uniform_tm(topo, 6.0));
  Packet pkt{{"srcip", 77}, {"dstip", ip(10, 0, 1, 1)}};
  StateVarId v = state_var_id("dp-udp");
  int owner = dep.pr.placement.at(v);
  EXPECT_EQ(dep.net->inject(2, pkt).size(), 1u);
  EXPECT_EQ(dep.net->inject(2, pkt).size(), 1u);
  // Third packet hits the threshold (counter becomes 3) and is dropped.
  EXPECT_TRUE(dep.net->inject(2, pkt).empty());
  EXPECT_EQ(dep.net->switch_at(owner).state().get(v, {77}), 3);
}

// Lock-step equivalence: dataplane vs oracle over a packet trace.
void expect_trace_equivalence(const PolPtr& p, const Topology& topo,
                              const std::vector<std::pair<PortId, Packet>>&
                                  trace) {
  Deployment dep(p, topo, uniform_tm(topo, 6.0));
  Store oracle_state;
  for (const auto& [inport, pkt_in] : trace) {
    Packet pkt = pkt_in;
    pkt.set("inport", inport);
    EvalResult expected = eval(p, oracle_state, pkt);
    oracle_state = expected.store;
    auto got = dep.net->inject(inport, pkt);
    // Compare delivered packet multisets with oracle outputs that carry a
    // resolvable egress.
    std::set<Packet> got_packets;
    for (const auto& d : got) got_packets.insert(d.packet);
    std::set<Packet> want;
    for (const Packet& q : expected.packets) {
      auto op = q.get("outport");
      if (!op) continue;
      bool known = false;
      for (PortId prt : topo.ports()) known |= (prt == *op);
      if (known) want.insert(q);
    }
    ASSERT_EQ(got_packets, want);
    ASSERT_TRUE(dep.net->merged_state() == oracle_state)
        << "distributed state diverged from the oracle\n"
        << "oracle:\n" << oracle_state.to_string() << "dataplane:\n"
        << dep.net->merged_state().to_string();
  }
}

TEST(Dataplane, DnsTunnelTraceMatchesOracle) {
  Topology topo = make_figure2_campus();
  auto dns = land(test_cidr("dstip", "10.0.6.0/24"), test("srcport", 53));
  auto prog =
      ite(dns,
          sset("dp-orphan", idx("dstip", "dns.rdata"), lit(kTrue)) >>
              (sinc("dp-susp", idx("dstip")) >>
               ite(stest("dp-susp", idx("dstip"), lit(2)),
                   sset("dp-black", idx("dstip"), lit(kTrue)), filter(id()))),
          ite(land(test_cidr("srcip", "10.0.6.0/24"),
                   stest("dp-orphan", idx("srcip", "dstip"), lit(kTrue))),
              sset("dp-orphan", idx("srcip", "dstip"), lit(kFalse)) >>
                  sdec("dp-susp", idx("srcip")),
              filter(id()))) >>
      ite(test_cidr("dstip", "10.0.6.0/24"), mod("outport", 6),
          ite(test_cidr("dstip", "10.0.1.0/24"), mod("outport", 1),
              filter(drop())));
  Value client = ip(10, 0, 6, 50);
  Value server = ip(10, 0, 1, 34);
  std::vector<std::pair<PortId, Packet>> trace{
      {1, Packet{{"dstip", client}, {"srcport", 53}, {"dns.rdata", server},
                 {"srcip", 9}}},
      {6, Packet{{"srcip", client}, {"dstip", server}, {"srcport", 900}}},
      {1, Packet{{"dstip", client}, {"srcport", 53}, {"dns.rdata", server},
                 {"srcip", 9}}},
      {1, Packet{{"dstip", client}, {"srcport", 53},
                 {"dns.rdata", server + 1}, {"srcip", 9}}},
      {2, Packet{{"srcip", 5}, {"dstip", ip(10, 0, 1, 7)}, {"srcport", 80}}},
  };
  expect_trace_equivalence(prog, topo, trace);
}

TEST(Dataplane, RandomTraceEquivalenceProperty) {
  // Random stateful programs + random traces on the Figure-2 campus; the
  // distributed execution must match the oracle exactly.
  Topology topo = make_figure2_campus();
  Rng rng(2024);
  const char* fields[] = {"rk-a", "rk-b"};
  for (int trial = 0; trial < 25; ++trial) {
    // Random guarded counter program with 1-2 state variables.
    std::string v1 = "rt-v" + std::to_string(trial) + "a";
    std::string v2 = "rt-v" + std::to_string(trial) + "b";
    PredPtr guard = test(fields[rng.uniform(0, 1)], rng.uniform(0, 2));
    PolPtr stateful =
        ite(guard, sinc(v1, idx(fields[rng.uniform(0, 1)])),
            ite(stest(v1, idx(fields[0]), lit(rng.uniform(0, 2))),
                sset(v2, idx(fields[1]), lit(rng.uniform(0, 3))),
                sdec(v1, idx(fields[1]))));
    PolPtr prog = stateful >> ite(test(fields[0], 0), mod("outport", 1),
                                  ite(test(fields[0], 1), mod("outport", 2),
                                      mod("outport", 6)));
    std::vector<std::pair<PortId, Packet>> trace;
    for (int i = 0; i < 12; ++i) {
      Packet pkt;
      pkt.set(fields[0], rng.uniform(0, 2));
      pkt.set(fields[1], rng.uniform(0, 2));
      trace.emplace_back(static_cast<PortId>(rng.uniform(1, 6)), pkt);
    }
    expect_trace_equivalence(prog, topo, trace);
  }
}

// Instruction accounting, counted by hand: each switch is charged one unit
// per retained instruction on the packet's path — branches, escapes, state
// ops and the leaf-done; atomic-region markers are not work. There is one
// per-switch interpreter, so the expected counts are spelled out here
// instead of compared against a second one.
TEST(Dataplane, InstructionAccountingMatchesHandCount) {
  Topology topo("line2", 2);
  topo.add_duplex(0, 1, 1000.0);
  topo.attach_port(1, 0);
  topo.attach_port(2, 1);
  // A field test at the root, then a state test on ia-cnt whose pass branch
  // increments it. ia-cnt lives on switch 1, so the ingress switch 0
  // escapes on the test and switch 1 resumes there and writes locally.
  const StateVarId cnt = state_var_id("ia-cnt");
  PolPtr p = ite(test("dstip", 7),
                 ite(stest("ia-cnt", idx("srcip"), lit(0)),
                     sinc("ia-cnt", idx("srcip")) >> mod("outport", 2),
                     mod("outport", 2)),
                 mod("outport", 2));
  XfddStore store;
  TestOrder order;
  XfddId root = to_xfdd(store, order, p);
  Placement pl;
  pl.switch_of[cnt] = 1;
  Network net(topo, store, root, pl, Routing{}, order);
  auto executed = [&](int sw) {
    return net.switch_at(sw).instructions_executed();
  };

  Packet hit{{"dstip", 7}, {"srcip", 5}};
  auto out = net.inject(1, hit);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outport, 2);
  EXPECT_EQ(net.switch_at(1).state().get(cnt, {5}), 1);
  // Switch 0: branch(dstip) + escape(ia-cnt).
  EXPECT_EQ(executed(0), 2u);
  // Switch 1: branch(ia-cnt) + inc(ia-cnt) + leaf-done; the atomic region
  // around the increment is not counted.
  EXPECT_EQ(executed(1), 3u);

  // ia-cnt[5] is now 1, so the state test fails into a leaf with no
  // writes: switch 0 as before, switch 1 branch + leaf-done.
  net.inject(1, hit);
  EXPECT_EQ(executed(0), 4u);
  EXPECT_EQ(executed(1), 5u);

  // A packet failing the field test resolves on switch 0 alone: branch +
  // leaf-done. Switch 1 only forwards it to egress.
  net.inject(1, Packet{{"dstip", 8}, {"srcip", 5}});
  EXPECT_EQ(executed(0), 6u);
  EXPECT_EQ(executed(1), 5u);

  // A removed switch has an empty program: a packet reaching it fails with
  // a typed error instead of running anything.
  net.switch_at(0).install(netasm::Program{});
  try {
    net.inject(1, hit);
    FAIL() << "an empty program must not resolve a packet";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("no program entry"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(executed(0), 6u);
}

TEST(Dataplane, HopsFollowOptimizerPaths) {
  // A stateless flow between two ports must use exactly the optimizer's
  // path length.
  Topology topo = make_figure2_campus();
  auto p = two_port_egress();
  Deployment dep(p, topo, uniform_tm(topo, 6.0));
  auto path = dep.pr.routing.paths.at({4, 1});
  Packet pkt{{"dstip", ip(10, 0, 1, 2)}};
  std::uint64_t before = dep.net->total_hops();
  dep.net->inject(4, pkt);
  EXPECT_EQ(dep.net->total_hops() - before, path.size() - 1);
}

}  // namespace
}  // namespace snap
