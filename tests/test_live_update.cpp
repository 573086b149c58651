// Live-update mode (sim::TrafficEngine::run_live): the epoch consistency
// contract and the byte-equivalence of mid-stream rule swaps against the
// quiesced reference (drain -> Network::apply -> resume).
//
// Three layers, mirroring the contract in sim/engine.h:
//   1. Single-epoch-per-packet: with record_epochs on, every program run a
//      packet performs carries the same epoch, and that epoch equals the
//      number of events at or before the packet's sequence number — in
//      deterministic AND free-running mode, across the policy corpus.
//   2. Deterministic byte-equivalence: deliveries and final merged state of
//      a live run equal the segmented serial reference, including under a
//      seeded randomized event stream (the seed prints on failure).
//   3. Regression: an apply at full ring occupancy (small window, capacity-1
//      placement forcing cross-worker walks) neither drops nor
//      double-processes packets.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "apps/apps.h"
#include "compiler/session.h"
#include "dataplane/network.h"
#include "rulegen/delta.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "topo/gen.h"
#include "util/status.h"

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

std::vector<apps::CorpusApp> corpus(const Topology& topo) {
  return apps::evaluation_corpus("sim",
                                 apps::default_subnets(topo.ports()));
}

// The quiesced reference: replay the workload serially, draining fully at
// every event boundary and applying the delta to the idle network. This is
// the behavior run_live promises to match byte-for-byte in deterministic
// mode.
struct Reference {
  std::vector<Network::Delivery> deliveries;
  Store state;
};

Reference quiesced_replay(const RuleDelta& cold, const sim::Workload& wl,
                          const std::vector<sim::LiveEvent>& schedule) {
  Network net(cold);
  auto batch = sim::as_injection_batch(wl);
  Reference ref;
  std::size_t at = 0;
  for (const sim::LiveEvent& ev : schedule) {
    std::size_t upto = std::min(ev.at_seq, batch.size());
    for (; at < upto; ++at) {
      auto out = net.inject(batch[at].first, batch[at].second);
      ref.deliveries.insert(ref.deliveries.end(), out.begin(), out.end());
    }
    net.apply(ev.delta);
  }
  for (; at < batch.size(); ++at) {
    auto out = net.inject(batch[at].first, batch[at].second);
    ref.deliveries.insert(ref.deliveries.end(), out.begin(), out.end());
  }
  ref.state = net.merged_state();
  return ref;
}

// Builds the shared three-event schedule for a corpus app: a policy change
// to the next app in the corpus, then a core-switch failure and its
// restoration (C1..C6 of the Figure 2 campus are portless, so failing one
// never disconnects an OBS port). The session ends back on `alt`'s policy
// with all switches restored.
std::vector<sim::LiveEvent> corpus_schedule(Session& session,
                                            const apps::CorpusApp& alt,
                                            std::size_t n) {
  std::vector<sim::LiveEvent> schedule;
  schedule.push_back({n / 4, session.set_policy(alt.policy).delta,
                      "set_policy"});
  schedule.push_back({n / 2, session.fail_switch(8).delta, "fail"});
  schedule.push_back({3 * n / 4, session.restore_switch(8).delta,
                      "restore"});
  return schedule;
}

// The single-epoch-per-packet contract, plus the stronger determinism both
// modes share: a packet's epoch is exactly the number of events at or
// before its sequence number (events swap at dispatch boundaries, and
// dispatch is strict sequence order in both modes).
void check_epoch_contract(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& marks,
    const std::vector<sim::LiveEvent>& schedule, std::size_t n,
    const std::string& tag) {
  std::map<std::uint32_t, std::set<std::uint32_t>> by_seq;
  for (const auto& [seq, epoch] : marks) by_seq[seq].insert(epoch);
  ASSERT_EQ(by_seq.size(), n) << tag << ": not every packet left a mark";
  for (const auto& [seq, epochs] : by_seq) {
    ASSERT_EQ(epochs.size(), 1u)
        << tag << ": packet " << seq
        << " observed more than one policy epoch";
    std::uint32_t expect = 0;
    for (const sim::LiveEvent& ev : schedule) {
      if (ev.at_seq <= seq) ++expect;
    }
    EXPECT_EQ(*epochs.begin(), expect)
        << tag << ": packet " << seq << " ran under the wrong epoch";
  }
}

class LiveCorpus : public ::testing::TestWithParam<int> {};

TEST_P(LiveCorpus, MidStreamEventsMatchQuiescedReference) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 1);
  auto reg = corpus(topo);
  auto c = reg[static_cast<std::size_t>(GetParam())];
  auto alt = reg[static_cast<std::size_t>(GetParam() + 1) % reg.size()];

  Session session(topo, tm);
  EventResult cold = session.full_compile(c.policy);
  const std::size_t n = 400;
  sim::Workload wl = sim::WorkloadGen(topo, tm, 42).generate(
      sim::scenario_for_app(c.name), n);
  auto schedule = corpus_schedule(session, alt, n);
  Reference ref = quiesced_replay(cold.delta, wl, schedule);

  for (int workers : {1, 2, 8}) {
    for (bool det : {true, false}) {
      sim::EngineOptions opts;
      opts.workers = workers;
      opts.deterministic = det;
      opts.record_epochs = true;
      sim::TrafficEngine engine(cold.delta, opts);
      auto out = engine.run_live(wl, schedule);
      std::string tag = c.name + (det ? " det" : " free") + " w" +
                        std::to_string(workers);
      // Layer 1 — the contract both modes promise.
      ASSERT_NO_FATAL_FAILURE(
          check_epoch_contract(engine.epoch_marks(), schedule, n, tag));
      EXPECT_EQ(engine.stats().epochs, schedule.size() + 1) << tag;
      ASSERT_EQ(engine.stats().events.size(), schedule.size()) << tag;
      for (const sim::LiveEventStats& es : engine.stats().events) {
        EXPECT_GE(es.swap_seconds, 0.0) << tag << " " << es.label;
        // Every event lands mid-stream, so some packet ran on its rules.
        EXPECT_GE(es.first_packet_seconds, 0.0) << tag << " " << es.label;
      }
      // Layer 2 — byte-equivalence, deterministic mode only.
      if (det) {
        ASSERT_NO_FATAL_FAILURE(
            expect_same_deliveries(ref.deliveries, out))
            << tag;
        ASSERT_TRUE(ref.state == engine.network().merged_state())
            << tag << " state diverged\nreference:\n"
            << ref.state.to_string() << "live:\n"
            << engine.network().merged_state().to_string();
      } else {
        EXPECT_EQ(engine.stats().packets, n) << tag;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, LiveCorpus, ::testing::Range(0, 11),
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

// Seeded randomized event streams: N random Session events (policy swaps
// across the corpus, core-switch failures, restorations) at random
// sequence boundaries of a long run must leave deliveries and merged state
// byte-identical to the quiesced reference. The seed is in every failure
// message — reproduce with it directly.
TEST(LiveUpdate, RandomizedEventStreamMatchesQuiescedReference) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 1);
  auto reg = corpus(topo);
  const std::size_t n = 100000;

  for (std::uint32_t seed : {7u, 21u}) {
    std::mt19937 rng(seed);
    Session session(topo, tm);
    EventResult cold =
        session.full_compile(reg[seed % reg.size()].policy);
    sim::Workload wl = sim::WorkloadGen(topo, tm, seed).generate(
        *sim::find_scenario("mixed"), n);

    // Random boundaries, sorted; duplicates are fine (two events at one
    // boundary apply back-to-back before the packet dispatches).
    const int events = 6;
    std::vector<std::size_t> at;
    for (int i = 0; i < events; ++i) {
      at.push_back(std::uniform_int_distribution<std::size_t>(1, n - 1)(rng));
    }
    std::sort(at.begin(), at.end());

    std::vector<sim::LiveEvent> schedule;
    std::set<int> failed;
    for (int i = 0; i < events; ++i) {
      int kind = std::uniform_int_distribution<int>(0, 2)(rng);
      if (kind == 2 && !failed.empty()) {
        int sw = *failed.begin();
        failed.erase(failed.begin());
        schedule.push_back({at[static_cast<std::size_t>(i)],
                            session.restore_switch(sw).delta, "restore"});
      } else if (kind == 1 && failed.size() < 2) {
        // Core switches 6..11 are portless; failing up to two keeps the
        // campus connected.
        int sw = 6 + std::uniform_int_distribution<int>(0, 5)(rng);
        if (failed.count(sw)) {
          continue;  // already down; skip this slot
        }
        failed.insert(sw);
        schedule.push_back({at[static_cast<std::size_t>(i)],
                            session.fail_switch(sw).delta, "fail"});
      } else {
        auto& app = reg[std::uniform_int_distribution<std::size_t>(
            0, reg.size() - 1)(rng)];
        schedule.push_back({at[static_cast<std::size_t>(i)],
                            session.set_policy(app.policy).delta,
                            "set_policy"});
      }
    }
    ASSERT_FALSE(schedule.empty()) << "seed=" << seed;

    Reference ref = quiesced_replay(cold.delta, wl, schedule);
    sim::EngineOptions opts;
    opts.workers = 4;
    opts.record_epochs = true;
    sim::TrafficEngine engine(cold.delta, opts);
    auto out = engine.run_live(wl, schedule);
    ASSERT_NO_FATAL_FAILURE(expect_same_deliveries(ref.deliveries, out))
        << "seed=" << seed << " (" << schedule.size() << " events)";
    ASSERT_TRUE(ref.state == engine.network().merged_state())
        << "seed=" << seed << " state diverged after "
        << schedule.size() << " random events\nreference:\n"
        << ref.state.to_string() << "live:\n"
        << engine.network().merged_state().to_string();
    ASSERT_NO_FATAL_FAILURE(check_epoch_contract(
        engine.epoch_marks(), schedule, n,
        "seed=" + std::to_string(seed)));
  }
}

// Regression: an apply() landing while the ring window is saturated with
// cross-worker walks must neither drop nor double-process packets. The
// capacity-1 placement splits two always-written variables across switches
// (every packet escapes at ingress and visits both owners — the PR 4
// stuck-packet scenario), the window is the minimum the engine accepts,
// and the event re-places both variables mid-stream.
TEST(LiveUpdate, ApplyUnderFullRingOccupancyDropsNothing) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 2);
  auto egress = apps::assign_egress(apps::default_subnets(topo.ports()));
  PolPtr walk = ite(stest("lu-walk-a", idx("inport"), lit(999999)),
                    filter(drop()),
                    sinc("lu-walk-a", idx("inport")) >>
                        (sinc("lu-walk-b", idx("srcip")) >> egress));
  CompilerOptions copts;
  copts.state_capacity = 1;
  Session session(topo, tm, copts);
  EventResult cold = session.full_compile(walk);
  ASSERT_NE(cold.delta.placement.at(state_var_id("lu-walk-a")),
            cold.delta.placement.at(state_var_id("lu-walk-b")));

  const std::size_t n = 500;
  sim::Workload wl = sim::WorkloadGen(topo, tm, 5).generate(
      *sim::find_scenario("uniform"), n);
  // Recompiling with the variable order flipped moves the placement, so
  // the event migrates live state between workers.
  PolPtr flipped = ite(stest("lu-walk-b", idx("srcip"), lit(999999)),
                       filter(drop()),
                       sinc("lu-walk-b", idx("srcip")) >>
                           (sinc("lu-walk-a", idx("inport")) >> egress));
  std::vector<sim::LiveEvent> schedule;
  schedule.push_back({n / 2, session.set_policy(flipped).delta,
                      "set_policy"});
  Reference ref = quiesced_replay(cold.delta, wl, schedule);

  for (std::size_t window : {16u, 32u}) {
    sim::EngineOptions opts;
    opts.workers = 2;
    opts.window = window;
    opts.record_epochs = true;
    // The locality plan would co-locate both owners and the walk would
    // never cross a worker boundary; an sw % 2 map keeps them apart so the
    // event really migrates state between workers under ring pressure.
    opts.shard = sim::ShardMode::kExplicit;
    for (int sw = 0; sw < topo.num_switches(); ++sw) {
      opts.shard_map.push_back(sw % opts.workers);
    }
    sim::TrafficEngine engine(cold.delta, opts);
    auto out = engine.run_live(wl, schedule);
    std::string tag = "window=" + std::to_string(window);
    // No drops, no double-processing: exactly one epoch mark set per
    // sequence number, every delivery accounted for once.
    EXPECT_EQ(engine.stats().packets, n) << tag;
    ASSERT_NO_FATAL_FAILURE(
        check_epoch_contract(engine.epoch_marks(), schedule, n, tag));
    ASSERT_NO_FATAL_FAILURE(expect_same_deliveries(ref.deliveries, out))
        << tag;
    ASSERT_TRUE(ref.state == engine.network().merged_state()) << tag;
    EXPECT_GT(engine.stats().forwards, 0u)
        << tag << ": scenario must cross worker shards";
    ASSERT_EQ(engine.stats().events.size(), 1u) << tag;
    EXPECT_GT(engine.stats().events[0].migrated_vars, 0u)
        << tag << ": the flipped placement must migrate state";
  }
}

// apply_async queued before the run starts is adopted at the first
// dispatch boundary — the deterministic end of snapd's feed path (a delta
// queued mid-run lands at whatever boundary the scheduler reaches next,
// which a test cannot pin down).
TEST(LiveUpdate, AsyncDeltaQueuedBeforeRunAdoptsAtFirstBoundary) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 3);
  auto reg = corpus(topo);
  Session session(topo, tm);
  EventResult cold = session.full_compile(reg[2].policy);  // heavy-hitter
  const std::size_t n = 300;
  sim::Workload wl = sim::WorkloadGen(topo, tm, 9).generate(
      sim::scenario_for_app(reg[2].name), n);
  RuleDelta swap = session.set_policy(reg[5].policy).delta;  // udp-flood

  // Reference: the swap applies before any packet.
  std::vector<sim::LiveEvent> at_start;
  at_start.push_back({0, swap, "set_policy"});
  Reference ref = quiesced_replay(cold.delta, wl, at_start);

  sim::EngineOptions opts;
  opts.workers = 2;
  sim::TrafficEngine engine(cold.delta, opts);
  engine.apply_async(swap, "set_policy");
  auto out = engine.run_live(wl, {});
  ASSERT_EQ(engine.stats().events.size(), 1u);
  EXPECT_EQ(engine.stats().events[0].at_seq, 0u);
  EXPECT_EQ(engine.stats().epochs, 2u);
  expect_same_deliveries(ref.deliveries, out);
  ASSERT_TRUE(ref.state == engine.network().merged_state());
  sim::LiveProgress p = engine.live();
  EXPECT_FALSE(p.running);
  EXPECT_EQ(p.completed, n);
  EXPECT_EQ(p.events_applied, 1u);
}

// Events scheduled at or past the stream end still swap (quiesced, after
// the last packet), so the network always finishes on the final epoch's
// rules — matching what a controller that keeps compiling after traffic
// stops expects.
TEST(LiveUpdate, TrailingEventAppliesAfterStreamDrains) {
  Topology topo = make_figure2_campus();
  TrafficMatrix tm = gravity_traffic(topo, 10.0, 3);
  auto reg = corpus(topo);
  Session session(topo, tm);
  EventResult cold = session.full_compile(reg[1].policy);
  const std::size_t n = 200;
  sim::Workload wl = sim::WorkloadGen(topo, tm, 11).generate(
      sim::scenario_for_app(reg[1].name), n);
  std::vector<sim::LiveEvent> schedule;
  schedule.push_back({n + 50, session.set_policy(reg[3].policy).delta,
                      "late"});
  Reference ref = quiesced_replay(cold.delta, wl, schedule);

  sim::TrafficEngine engine(cold.delta, {});
  auto out = engine.run_live(wl, schedule);
  expect_same_deliveries(ref.deliveries, out);
  ASSERT_TRUE(ref.state == engine.network().merged_state());
  ASSERT_EQ(engine.stats().events.size(), 1u);
  // No packet ever ran on the new rules.
  EXPECT_LT(engine.stats().events[0].first_packet_seconds, 0.0);
}

}  // namespace
}  // namespace snap
