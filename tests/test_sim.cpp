// The traffic engine (src/sim): workload determinism, serial-vs-sharded
// byte equivalence across the policy corpus and worker counts, forced
// cross-worker forwarding, the flat TrafficMatrix, and the per-delta
// instruction-stat reset.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "compiler/session.h"
#include "dataplane/network.h"
#include "rulegen/delta.h"
#include "sim/conflict.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "topo/gen.h"
#include "util/status.h"
#include "xfdd/compose.h"

namespace snap {
namespace {

using namespace snap::dsl;

void expect_same_deliveries(const std::vector<Network::Delivery>& a,
                            const std::vector<Network::Delivery>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].outport, b[i].outport) << "delivery " << i;
    ASSERT_TRUE(a[i].packet == b[i].packet)
        << "delivery " << i << ": " << a[i].packet.to_string() << " vs "
        << b[i].packet.to_string();
  }
}

// An explicit sw % W switch→worker map: spreads state owners across
// workers where the locality plan would co-locate them.
std::vector<int> modulo_map(const Topology& topo, int workers) {
  std::vector<int> map;
  for (int sw = 0; sw < topo.num_switches(); ++sw) {
    map.push_back(sw % workers);
  }
  return map;
}

// The shared 11-policy evaluation corpus (thresholds low so terminal
// branches trigger, egress included so deliveries are nonempty).
std::vector<apps::CorpusApp> corpus(const Topology& topo) {
  return apps::evaluation_corpus("sim",
                                 apps::default_subnets(topo.ports()));
}

TEST(TrafficMatrixFlat, SortedVectorSemantics) {
  TrafficMatrix tm;
  tm.set_demand(5, 1, 2.0);
  tm.set_demand(1, 5, 1.0);
  tm.set_demand(3, 2, 4.0);
  tm.set_demand(5, 1, 2.5);  // overwrite, not duplicate
  EXPECT_DOUBLE_EQ(tm.demand(1, 5), 1.0);
  EXPECT_DOUBLE_EQ(tm.demand(5, 1), 2.5);
  EXPECT_DOUBLE_EQ(tm.demand(3, 2), 4.0);
  EXPECT_DOUBLE_EQ(tm.demand(2, 3), 0.0);
  EXPECT_DOUBLE_EQ(tm.total(), 7.5);
  ASSERT_EQ(tm.demands().size(), 3u);
  EXPECT_TRUE(std::is_sorted(tm.demands().begin(), tm.demands().end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }));
}

TEST(Workload, DeterministicBySeed) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 3);
  const sim::Scenario* mixed = sim::find_scenario("mixed");
  ASSERT_NE(mixed, nullptr);
  sim::Workload a = sim::WorkloadGen(topo, tm, 11).generate(*mixed, 400);
  sim::Workload b = sim::WorkloadGen(topo, tm, 11).generate(*mixed, 400);
  ASSERT_EQ(a.packets.size(), 400u);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    ASSERT_EQ(a.packets[i].inport, b.packets[i].inport) << i;
    ASSERT_TRUE(a.packets[i].pkt == b.packets[i].pkt) << i;
  }
  sim::Workload c = sim::WorkloadGen(topo, tm, 12).generate(*mixed, 400);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.packets.size(); ++i) {
    any_diff |= !(a.packets[i].pkt == c.packets[i].pkt) ||
                a.packets[i].inport != c.packets[i].inport;
  }
  EXPECT_TRUE(any_diff) << "different seeds produced identical traces";
}

TEST(Workload, EveryAppHasACataloguedScenario) {
  for (const auto& app : apps::registry()) {
    const sim::Scenario* sc = sim::find_scenario(app.workload);
    ASSERT_NE(sc, nullptr) << app.name << " -> " << app.workload;
    EXPECT_EQ(sim::scenario_for_app(app.name).name, sc->name);
  }
  EXPECT_THROW(sim::scenario_for_app("no-such-app"), Error);
}

TEST(Workload, PacketsCarryConsistentBaseFields) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 3);
  for (const sim::Scenario& sc : sim::scenario_catalogue()) {
    sim::Workload wl = sim::WorkloadGen(topo, tm, 9).generate(sc, 200);
    ASSERT_EQ(wl.packets.size(), 200u) << sc.name;
    for (const auto& sp : wl.packets) {
      // Every packet enters at a real OBS port and carries the 5-tuple the
      // corpus policies index on.
      EXPECT_NO_THROW(topo.port_switch(sp.inport)) << sc.name;
      for (const char* f :
           {"srcip", "dstip", "srcport", "dstport", "proto", "inport",
            "sid"}) {
        EXPECT_TRUE(sp.pkt.get(f).has_value()) << sc.name << " lacks " << f;
      }
      EXPECT_EQ(sp.pkt.get("inport"), static_cast<Value>(sp.inport));
    }
  }
}

class SimCorpus : public ::testing::TestWithParam<int> {};

TEST_P(SimCorpus, ShardedMatchesSerialAcrossWorkerCounts) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 1);
  auto c = corpus(topo)[static_cast<std::size_t>(GetParam())];

  Session session(topo, tm);
  EventResult ev = session.full_compile(c.policy);
  sim::Workload wl = sim::WorkloadGen(topo, tm, 42).generate(
      sim::scenario_for_app(c.name), 400);

  Network serial(ev.delta);
  auto serial_out = serial.inject_batch(sim::as_injection_batch(wl));
  Store serial_state = serial.merged_state();

  // The determinism guarantee must hold for every (worker count, ring
  // burst size) combination — partial bursts, idle flushes and full
  // kMaxTaskBurst messages all replay the serial order byte-identically.
  for (int workers : {1, 2, 8}) {
    for (int burst : {1, 8, 64}) {
      sim::EngineOptions opts;
      opts.workers = workers;
      opts.burst = burst;
      opts.deterministic = true;
      sim::TrafficEngine engine(ev.delta, opts);
      auto engine_out = engine.run(wl);
      ASSERT_NO_FATAL_FAILURE(expect_same_deliveries(serial_out,
                                                     engine_out))
          << c.name << " at " << workers << " workers, burst " << burst;
      ASSERT_TRUE(serial_state == engine.network().merged_state())
          << c.name << " state diverged at " << workers << " workers, burst "
          << burst << "\nserial:\n" << serial_state.to_string()
          << "engine:\n" << engine.network().merged_state().to_string();
      // Faithful replication extends to hop accounting and to per-switch
      // instruction counts (the engine's workers and the serial path run
      // the same decoded programs).
      EXPECT_EQ(serial.total_hops(), engine.network().total_hops())
          << c.name << " at " << workers << " workers, burst " << burst;
      EXPECT_EQ(engine.stats().packets, wl.packets.size());
      EXPECT_EQ(engine.stats().burst, burst);
      // Masks ride in tasks and the rings are sized to the window, so the
      // dispatch/completion loop must not touch the heap per packet.
      EXPECT_EQ(engine.stats().steady_allocs, 0u)
          << c.name << " at " << workers << " workers, burst " << burst;
      for (int sw = 0; sw < topo.num_switches(); ++sw) {
        EXPECT_EQ(serial.switch_at(sw).instructions_executed(),
                  engine.stats()
                      .per_switch_instructions[static_cast<std::size_t>(
                          sw)])
            << c.name << " switch " << sw << " at " << workers
            << " workers, burst " << burst;
      }
    }
  }
}

TEST_P(SimCorpus, ShardMapsPreserveSerialEquivalence) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 1);
  auto c = corpus(topo)[static_cast<std::size_t>(GetParam())];

  Session session(topo, tm);
  EventResult ev = session.full_compile(c.policy);
  sim::Workload wl = sim::WorkloadGen(topo, tm, 42).generate(
      sim::scenario_for_app(c.name), 400);

  Network serial(ev.delta);
  auto serial_out = serial.inject_batch(sim::as_injection_batch(wl));
  Store serial_state = serial.merged_state();

  // Determinism must be a property of the scheduler alone: any switch→worker
  // map — the compiler's locality plan, an sw % W map, or a map built to
  // scatter every conflict component across workers — replays the serial
  // trajectory byte-identically. Only throughput may differ.
  for (int workers : {1, 2, 8}) {
    sim::EngineOptions lopts;
    lopts.workers = workers;
    lopts.deterministic = true;
    lopts.shard = sim::ShardMode::kLocality;
    sim::TrafficEngine locality(ev.delta, lopts);
    ASSERT_EQ(locality.shard_plan().worker.size(),
              static_cast<std::size_t>(topo.num_switches()));

    // Adversarial map: rotate each locality assignment by the switch id so
    // co-located conflict components are smeared over all workers.
    std::vector<int> adversarial = locality.shard_plan().worker;
    for (std::size_t sw = 0; sw < adversarial.size(); ++sw) {
      adversarial[sw] =
          (adversarial[sw] + static_cast<int>(sw)) % workers;
    }

    sim::EngineOptions mopts = lopts;
    mopts.shard = sim::ShardMode::kExplicit;
    mopts.shard_map = modulo_map(topo, workers);
    sim::TrafficEngine modulo(ev.delta, mopts);

    sim::EngineOptions aopts = lopts;
    aopts.shard = sim::ShardMode::kExplicit;
    aopts.shard_map = adversarial;
    sim::TrafficEngine scattered(ev.delta, aopts);

    struct Case {
      const char* label;
      sim::TrafficEngine* engine;
    } cases[] = {{"locality", &locality},
                 {"modulo", &modulo},
                 {"adversarial", &scattered}};
    for (const Case& mc : cases) {
      auto out = mc.engine->run(wl);
      ASSERT_NO_FATAL_FAILURE(expect_same_deliveries(serial_out, out))
          << c.name << " " << mc.label << " at " << workers << " workers";
      ASSERT_TRUE(serial_state == mc.engine->network().merged_state())
          << c.name << " state diverged under " << mc.label << " at "
          << workers << " workers";
      EXPECT_EQ(serial.total_hops(), mc.engine->network().total_hops())
          << c.name << " " << mc.label << " at " << workers << " workers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SimCorpus, ::testing::Range(0, 11),
                         [](const auto& info) {
                           std::string n =
                               corpus(make_figure2_campus())
                                   [static_cast<std::size_t>(info.param)]
                                       .name;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(Engine, StuckPacketHeavyScenarioForcesCrossWorkerForwarding) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 2);
  // Two always-written variables plus a state test at the root: capacity 1
  // spreads them over two switches, so nearly every packet escapes at its
  // ingress and then visits both owners to write.
  auto egress = apps::assign_egress(apps::default_subnets(topo.ports()));
  PolPtr p = ite(stest("sim-walk-a", idx("inport"), lit(999999)),
                 filter(drop()),
                 sinc("sim-walk-a", idx("inport")) >>
                     (sinc("sim-walk-b", idx("srcip")) >> egress));
  CompilerOptions copts;
  copts.state_capacity = 1;
  Session session(topo, tm, copts);
  EventResult ev = session.full_compile(p);
  ASSERT_NE(ev.delta.placement.at(state_var_id("sim-walk-a")),
            ev.delta.placement.at(state_var_id("sim-walk-b")));

  sim::Workload wl = sim::WorkloadGen(topo, tm, 5).generate(
      *sim::find_scenario("uniform"), 500);
  Network serial(ev.delta);
  auto serial_out = serial.inject_batch(sim::as_injection_batch(wl));

  sim::EngineOptions opts;
  opts.workers = 2;
  // The locality plan would co-locate both owners and defeat the point of
  // this test; an sw % 2 map keeps them on different workers.
  opts.shard = sim::ShardMode::kExplicit;
  opts.shard_map = modulo_map(topo, opts.workers);
  sim::TrafficEngine engine(ev.delta, opts);
  auto engine_out = engine.run(wl);
  expect_same_deliveries(serial_out, engine_out);
  ASSERT_TRUE(serial.merged_state() == engine.network().merged_state());
  EXPECT_GT(engine.stats().forwards, 0u)
      << "expected stuck/write packets to cross worker shards";
  EXPECT_GT(engine.stats().hops, 0u);
}

TEST(Engine, FreeRunningModeProcessesTheWholeWorkload) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 2);
  auto c = corpus(topo)[2];  // heavy-hitter
  Session session(topo, tm);
  EventResult ev = session.full_compile(c.policy);
  sim::Workload wl = sim::WorkloadGen(topo, tm, 8).generate(
      sim::scenario_for_app(c.name), 600);
  sim::EngineOptions opts;
  opts.workers = 2;
  opts.deterministic = false;
  sim::TrafficEngine engine(ev.delta, opts);
  auto out = engine.run(wl);
  EXPECT_EQ(engine.stats().packets, 600u);
  EXPECT_GT(engine.stats().instructions, 0u);
  EXPECT_GT(engine.stats().pps, 0.0);
  EXPECT_FALSE(engine.stats().deterministic);
  EXPECT_FALSE(out.empty());
}

TEST(Engine, SchedulerThrowReleasesWorkersInsteadOfHanging) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 2);
  auto c = corpus(topo)[2];  // heavy-hitter
  Session session(topo, tm);
  EventResult ev = session.full_compile(c.policy);
  // A workload naming an inport the deployed topology does not attach:
  // dispatch throws on the scheduler side; the engine must propagate the
  // error (not deadlock joining its worker loops).
  sim::Workload wl;
  wl.packets.push_back({static_cast<PortId>(9999), Packet{{"srcip", 1}}});
  sim::EngineOptions opts;
  opts.workers = 2;
  sim::TrafficEngine engine(ev.delta, opts);
  EXPECT_THROW(engine.run(wl), InternalError);
}

TEST(Engine, SessionDeploymentDrivesAFreshNetwork) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 4);
  auto c = corpus(topo)[1];  // stateful-firewall
  Session session(topo, tm);
  session.full_compile(c.policy);
  // deployment() after an event sequence must equal the live deployment.
  session.set_traffic(gravity_traffic(topo, 10.0, 9));
  RuleDelta full = session.deployment();
  EXPECT_EQ(full.programs.size(),
            session.deployed_programs().size());
  sim::Workload wl = sim::WorkloadGen(topo, session.traffic(), 3)
                         .generate(sim::scenario_for_app(c.name), 300);
  Network serial(full);
  auto serial_out = serial.inject_batch(sim::as_injection_batch(wl));
  sim::TrafficEngine engine(full, {});
  auto engine_out = engine.run(wl);
  expect_same_deliveries(serial_out, engine_out);
  ASSERT_TRUE(serial.merged_state() == engine.network().merged_state());
}

TEST(Dataplane, ApplyResetsInstructionStatsForChangedSwitches) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 1);
  auto reg = corpus(topo);
  Session session(topo, tm);
  EventResult cold = session.full_compile(reg[2].policy);  // heavy-hitter
  Network net(cold.delta);
  sim::Workload wl = sim::WorkloadGen(topo, tm, 2).generate(
      sim::scenario_for_app(reg[2].name), 200);
  net.inject_batch(sim::as_injection_batch(wl));
  std::uint64_t before = 0;
  for (int sw = 0; sw < topo.num_switches(); ++sw) {
    before += net.switch_at(sw).instructions_executed();
  }
  ASSERT_GT(before, 0u);

  std::vector<std::uint64_t> per_switch(
      static_cast<std::size_t>(topo.num_switches()));
  for (int sw = 0; sw < topo.num_switches(); ++sw) {
    per_switch[static_cast<std::size_t>(sw)] =
        net.switch_at(sw).instructions_executed();
  }

  EventResult ev = session.set_policy(reg[5].policy);  // udp-flood
  ASSERT_FALSE(ev.delta.changed.empty() && ev.delta.added.empty());
  net.apply(ev.delta);
  for (int sw : ev.delta.changed) {
    EXPECT_EQ(net.switch_at(sw).instructions_executed(), 0u) << sw;
  }
  for (int sw : ev.delta.added) {
    EXPECT_EQ(net.switch_at(sw).instructions_executed(), 0u) << sw;
  }
  // Unchanged switches keep their counters (stats only reset where the
  // program actually moved).
  for (int sw : ev.delta.unchanged) {
    EXPECT_EQ(net.switch_at(sw).instructions_executed(),
              per_switch[static_cast<std::size_t>(sw)])
        << sw;
  }
}

TEST(ConflictCache, CachedMaskMatchesFreshWalkOnMixedTrace) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 3);
  auto subnets = apps::default_subnets(topo.ports());
  // A composite with several state tables so masks actually differ by
  // flavor of packet (pure field-routed packets get empty masks, SYNs hit
  // the heavy-hitter tables, 10.0.6/24 traffic hits the firewall pair).
  PolPtr composite =
      apps::heavy_hitter("cc-hh", 3) >>
      (apps::stateful_firewall("cc-fw", "10.0.6.0/24") >>
       apps::assign_egress(subnets));
  Session session(topo, tm);
  EventResult ev = session.full_compile(composite);
  Network net(ev.delta);

  sim::Workload wl = sim::WorkloadGen(topo, tm, 21).generate(
      *sim::find_scenario("mixed"), 2000);
  sim::ConflictCache cache(net.store(), net.root());
  sim::ConflictCache ref(net.store(), net.root());
  EXPECT_FALSE(cache.test_fields().empty());

  std::vector<StateVarId> fresh;
  for (const auto& sp : wl.packets) {
    std::uint32_t idx = cache.mask_index(sp.pkt, sp.flow);
    ref.fresh_walk(sp.pkt, fresh);
    ASSERT_EQ(cache.mask(idx), fresh)
        << "cached conflict mask diverged from the fresh field-consistent "
           "walk for packet "
        << sp.pkt.to_string();
    for (StateVarId v : fresh) EXPECT_LE(v, cache.max_var_id());
  }
  // Flows replay a small signature set: the trace must be served mostly
  // from the cache, with exactly one walk per distinct signature.
  EXPECT_EQ(cache.hits() + cache.misses(), wl.packets.size());
  EXPECT_GT(cache.hits(), cache.misses());
  EXPECT_GT(cache.misses(), 0u);
}

TEST(Engine, ConflictCacheStatsSurfaceThroughSimStats) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 2);
  auto c = corpus(topo)[2];  // heavy-hitter
  Session session(topo, tm);
  EventResult ev = session.full_compile(c.policy);
  sim::Workload wl = sim::WorkloadGen(topo, tm, 4).generate(
      sim::scenario_for_app(c.name), 400);
  sim::EngineOptions opts;
  opts.workers = 2;
  sim::TrafficEngine engine(ev.delta, opts);
  engine.run(wl);
  EXPECT_EQ(engine.stats().conflict_hits + engine.stats().conflict_misses,
            wl.packets.size());
  EXPECT_GT(engine.stats().conflict_hits, 0u);
  // The JSON view carries the new counters and full-precision doubles.
  std::string js = engine.stats().to_json();
  EXPECT_NE(js.find("\"conflict_hits\":"), std::string::npos);
  EXPECT_NE(js.find("\"burst\":"), std::string::npos);
  EXPECT_NE(js.find("\"steady_allocs\":"), std::string::npos);
}

// A 16-switch line with 12 always-written variables placed zig-zag across
// the ends: the phase-2 write chain walks ~114 hops, more than the old
// single 4n+16 = 80 budget that was stretched across the whole resolve +
// multi-owner chain. With per-owner walk budgets (matching phase 3's
// per-copy budget) the chain completes, serial and sharded alike.
TEST(Dataplane, LongWriteChainDoesNotTripTheWalkGuard) {
  const int n = 16;
  Topology topo("line16", n);
  for (int i = 0; i + 1 < n; ++i) topo.add_duplex(i, i + 1, 1000.0);
  topo.attach_port(1, 0);
  topo.attach_port(2, n - 1);

  const int k = 12;
  std::vector<StateVarId> vars;
  for (int i = 0; i < k; ++i) {
    vars.push_back(state_var_id("lw-" + std::to_string(i)));
  }
  PolPtr p = mod("outport", 2);
  for (int i = k - 1; i >= 0; --i) {
    p = sinc(vars[static_cast<std::size_t>(i)], idx("srcip")) >>
        std::move(p);
  }

  // Hand-built deployment: the MILP would co-locate the chain, so place
  // the owners adversarially by hand (distinct switches, alternating
  // ends, in state-rank order = id order under the default TestOrder).
  Placement pl;
  for (int i = 0; i < k; ++i) {
    pl.switch_of[vars[static_cast<std::size_t>(i)]] =
        (i % 2 == 0) ? (n - 1 - i / 2) : (1 + i / 2);
  }
  auto store = std::make_shared<XfddStore>();
  TestOrder order;
  XfddId root = to_xfdd(*store, order, p);
  RuleDelta delta;
  delta.store = store;
  delta.root = root;
  delta.topo = topo;
  delta.placement = pl;
  delta.order = order;
  delta.programs = assemble_programs(*store, root, pl, n);

  sim::Workload wl;
  for (int i = 0; i < 40; ++i) {
    Packet pk{{"srcip", static_cast<Value>(100 + i % 4)}};
    wl.packets.push_back({1, pk});
  }

  Network serial(delta);
  std::vector<Network::Delivery> serial_out;
  ASSERT_NO_THROW(serial_out =
                      serial.inject_batch(sim::as_injection_batch(wl)));
  ASSERT_EQ(serial_out.size(), wl.packets.size());

  sim::EngineOptions opts;
  opts.workers = 2;
  // sw % 2 sharding: the locality plan would co-locate the write chain's
  // owners and the chain would never cross a worker boundary.
  opts.shard = sim::ShardMode::kExplicit;
  opts.shard_map = modulo_map(topo, opts.workers);
  sim::TrafficEngine engine(delta, opts);
  std::vector<Network::Delivery> engine_out;
  ASSERT_NO_THROW(engine_out = engine.run(wl));
  expect_same_deliveries(serial_out, engine_out);
  ASSERT_TRUE(serial.merged_state() == engine.network().merged_state());
  EXPECT_EQ(serial.total_hops(), engine.network().total_hops());
  // The chain really did cross shards (the scenario is the whole point).
  EXPECT_GT(engine.stats().forwards, 0u);
}

TEST(Engine, SparseHighStateVarIdsStayGatedDeterministically) {
  // Regression for the determinism hole: the gate table used to be sized
  // by state_var_count() at run start and *silently skipped* any id
  // beyond it — a sparse or stale id would let conflicting packets run
  // unserialized. The gate is now sized by the largest id the diagram can
  // put in a mask, and an out-of-range id fails loudly (SNAP_CHECK)
  // instead of skipping. Interning a pad block first pushes this policy's
  // ids far above the dense early range the old sizing assumed.
  for (int i = 0; i < 64; ++i) {
    state_var_id("sparse-pad-" + std::to_string(i));
  }
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 2);
  auto subnets = apps::default_subnets(topo.ports());
  PolPtr p = ite(stest("sparse-hi", idx("srcip"), lit(3)),
                 filter(drop()),
                 sinc("sparse-hi", idx("srcip")) >>
                     apps::assign_egress(subnets));
  Session session(topo, tm);
  EventResult ev = session.full_compile(p);

  Network net(ev.delta);
  sim::ConflictCache cache(net.store(), net.root());
  EXPECT_GE(cache.max_var_id(), state_var_id("sparse-hi"));

  sim::Workload wl = sim::WorkloadGen(topo, tm, 17).generate(
      *sim::find_scenario("uniform"), 400);
  Network serial(ev.delta);
  auto serial_out = serial.inject_batch(sim::as_injection_batch(wl));
  for (int workers : {1, 2}) {
    sim::EngineOptions opts;
    opts.workers = workers;
    sim::TrafficEngine engine(ev.delta, opts);
    auto out = engine.run(wl);
    ASSERT_NO_FATAL_FAILURE(expect_same_deliveries(serial_out, out))
        << workers << " workers";
    ASSERT_TRUE(serial.merged_state() == engine.network().merged_state())
        << workers << " workers";
  }
}

TEST(Engine, BlockedHeadsStayByteIdenticalToSerial) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 2);
  // An sw % 2 map keeps state owners spread across workers, so packets
  // whose conflict masks span workers are unconfined and a conflicting
  // head really waits in the gate for its predecessors' completions (the
  // locality plan confines every corpus policy). Head-of-line admission
  // must still replay the serial trajectory byte-identically.
  const int workers = 2;
  std::uint64_t unconfined = 0;
  for (const auto& c : corpus(topo)) {
    Session session(topo, tm);
    EventResult ev = session.full_compile(c.policy);
    sim::Workload wl = sim::WorkloadGen(topo, tm, 21).generate(
        sim::scenario_for_app(c.name), 400);
    Network serial(ev.delta);
    auto serial_out = serial.inject_batch(sim::as_injection_batch(wl));

    // Packets whose mask names a variable owned off the ingress worker:
    // each one can block the window head.
    const std::vector<int> map = modulo_map(topo, workers);
    sim::ConflictCache cache(serial.store(), serial.root());
    for (const auto& sp : wl.packets) {
      const int iw = map[static_cast<std::size_t>(
          topo.port_switch(sp.inport))];
      for (StateVarId v : cache.mask(cache.mask_index(sp.pkt, sp.flow))) {
        const int owner = ev.delta.placement.at(v);
        if (owner >= 0 && map[static_cast<std::size_t>(owner)] != iw) {
          ++unconfined;
          break;
        }
      }
    }

    sim::EngineOptions opts;
    opts.workers = workers;
    opts.deterministic = true;
    opts.shard = sim::ShardMode::kExplicit;
    opts.shard_map = map;
    sim::TrafficEngine engine(ev.delta, opts);
    auto out = engine.run(wl);
    ASSERT_NO_FATAL_FAILURE(expect_same_deliveries(serial_out, out))
        << c.name;
    ASSERT_TRUE(serial.merged_state() == engine.network().merged_state())
        << c.name;
    EXPECT_EQ(serial.total_hops(), engine.network().total_hops()) << c.name;
  }
  EXPECT_GT(unconfined, 0u)
      << "no corpus packet spans workers under the sw % 2 map — the "
         "blocked-head path is never exercised";
}

TEST(Engine, FreeRunningRtcSingleWorkerMatchesSerial) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 2);
  auto c = corpus(topo)[2];  // heavy-hitter (stateful)
  Session session(topo, tm);
  EventResult ev = session.full_compile(c.policy);
  sim::Workload wl = sim::WorkloadGen(topo, tm, 8).generate(
      sim::scenario_for_app(c.name), 600);
  Network serial(ev.delta);
  auto serial_out = serial.inject_batch(sim::as_injection_batch(wl));

  // Free-running RTC races state at W > 1 by design, but with a single
  // worker the burst loop consumes the workload in admission order: the
  // batch-classified fast path must reproduce the serial trajectory
  // exactly, and the pre-sized burst descriptors must not allocate.
  sim::EngineOptions opts;
  opts.workers = 1;
  opts.deterministic = false;
  sim::TrafficEngine engine(ev.delta, opts);
  auto out = engine.run(wl);
  ASSERT_NO_FATAL_FAILURE(expect_same_deliveries(serial_out, out));
  ASSERT_TRUE(serial.merged_state() == engine.network().merged_state());
  EXPECT_EQ(serial.total_hops(), engine.network().total_hops());
  EXPECT_GT(engine.stats().rtc_bursts, 0u);
  EXPECT_EQ(engine.stats().steady_allocs, 0u);
}

}  // namespace
}  // namespace snap
