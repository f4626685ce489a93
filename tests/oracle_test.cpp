// Independent earliest-arrival oracle: a connection scan (Dibbelt et al.,
// "Intriguingly Simple and Fast Transit Routing", SEA 2013) over the raw
// timetable — Timetable::connections() and the trips — unrolled over as
// many periods as a query needs. It shares nothing with the engines'
// graph model: no TdGraph, no TtfPool, no contraction. A fault in graph
// construction, TTF encoding or the overlay therefore shows up here even
// where every engine-vs-engine identity test agrees.
//
// Semantics are the engines': departing station S at absolute time tau,
// any connection leaving S at or after tau may be boarded (the origin needs
// no transfer); elsewhere, boarding a trip at station X requires arriving
// at X at least transfer_time(X) before it departs; staying seated on a
// trip instance costs nothing.
//
// The sweep runs every served earliest-arrival path against it on random
// generator networks: the flat time query under both queue policies, the
// overlay time query, and LiveQuerySession on a fresh epoch, after delay
// and cancel events, and on a degraded (flat-serving) epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/overlay_query.hpp"
#include "algo/time_query.hpp"
#include "gen/generator.hpp"
#include "live/delay_feed.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "test_util.hpp"
#include "util/fault_injector.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

/// Earliest arrival at every station departing `source` at absolute time
/// `tau` (kInfTime when unreachable), by scanning connection instances in
/// departure order. Instances are the timetable's connections shifted by
/// whole periods. The scan stops once every station's arrival is final —
/// a later connection departs after it and so cannot improve it — or at a
/// horizon no optimal journey can reach: it visits each station at most
/// once, and every leg waits less than a period plus a transfer and rides
/// at most the longest trip.
std::vector<Time> csa_earliest_arrival(const Timetable& tt, StationId source,
                                       Time tau) {
  const std::uint64_t period = tt.period();
  std::vector<Connection> conns = tt.connections();
  std::stable_sort(conns.begin(), conns.end(),
                   [](const Connection& a, const Connection& b) {
                     return a.dep < b.dep;
                   });
  std::uint64_t max_span = 0;
  for (TrainId z = 0; z < tt.num_trips(); ++z) {
    const Trip& trip = tt.trip(z);
    max_span = std::max<std::uint64_t>(
        max_span, trip.arrivals.back() - trip.departures.front());
  }
  const std::uint64_t horizon =
      tau + (tt.num_stations() + 1) * (2 * period + max_span);

  std::vector<std::uint64_t> ea(tt.num_stations(), UINT64_MAX);
  ea[source] = tau;
  std::size_t unreached = tt.num_stations() - 1;
  // Once every station is reached: the latest arrival among them, an upper
  // bound on every later one (labels only decrease). Scanning past it
  // cannot improve anything.
  std::uint64_t settled_by = UINT64_MAX;
  // Boarded trip instances, keyed (train, day of its first departure).
  std::unordered_set<std::uint64_t> boarded;
  const auto instance_key = [&](TrainId z, std::int64_t day) {
    return (static_cast<std::uint64_t>(z) << 32) |
           static_cast<std::uint32_t>(static_cast<std::int32_t>(day));
  };

  bool done = false;
  for (std::uint64_t m = tau / period; !done && m * period < horizon; ++m) {
    for (const Connection& c : conns) {
      const std::uint64_t dep = c.dep + m * period;
      if (dep < tau) continue;
      if (dep >= settled_by || dep >= horizon) {
        done = true;
        break;
      }
      const Trip& trip = tt.trip(c.train);
      const std::int64_t day =
          static_cast<std::int64_t>(m) -
          static_cast<std::int64_t>(trip.departures[c.pos] / period);
      const std::uint64_t key = instance_key(c.train, day);
      bool ride = boarded.count(key) != 0;
      if (!ride && ea[c.from] != UINT64_MAX) {
        const std::uint64_t ready =
            c.from == source ? tau : ea[c.from] + tt.transfer_time(c.from);
        ride = dep >= ready;
        if (ride) boarded.insert(key);
      }
      if (!ride) continue;
      const std::uint64_t arr = c.arr + m * period;
      if (arr < ea[c.to]) {
        const bool first = ea[c.to] == UINT64_MAX;
        ea[c.to] = arr;
        if (first && --unreached == 0) {
          settled_by = *std::max_element(ea.begin(), ea.end());
        }
      }
    }
  }
  std::vector<Time> out(tt.num_stations());
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    out[s] = ea[s] == UINT64_MAX ? kInfTime : static_cast<Time>(ea[s]);
  }
  return out;
}

/// Small random networks from the generator: bus cities and railways,
/// seeded so each run sweeps the same set.
std::vector<Timetable> sweep_networks() {
  std::vector<Timetable> nets;
  for (std::uint64_t seed : {3u, 11u}) {
    gen::BusCityConfig bus;
    bus.districts_x = 2;
    bus.districts_y = 2;
    bus.district_w = 3;
    bus.district_h = 3;
    bus.express_lines = 2;
    bus.frequency.base_headway = 1500;
    bus.arterial_frequency.base_headway = 1800;
    bus.seed = seed;
    nets.push_back(gen::make_bus_city(bus));

    gen::RailwayConfig rail;
    rail.hubs = 4;
    rail.extra_hub_links = 2;
    rail.intercity_stops = 1;
    rail.regional_lines_per_hub = 2;
    rail.regional_length = 3;
    rail.seed = seed;
    nets.push_back(gen::make_railway(rail));
  }
  return nets;
}

struct Probe {
  StationId source;
  Time departure;
};

/// Random (source, departure) pairs; departures span two periods so the
/// unrolling and the engines' wrap-around both get exercised.
std::vector<Probe> probes(const Timetable& tt, std::uint64_t seed,
                          std::size_t n) {
  Rng rng(seed);
  std::vector<Probe> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(
        {static_cast<StationId>(rng.next_below(tt.num_stations())),
         static_cast<Time>(rng.next_below(2 * std::uint64_t{tt.period()}))});
  }
  return out;
}

std::string where(const Probe& p, StationId s) {
  return "source " + std::to_string(p.source) + " dep " +
         std::to_string(p.departure) + " station " + std::to_string(s);
}

TEST(Oracle, ScanMatchesHandComputedTinyLine) {
  const Timetable tt = test::tiny_line();
  // Same expectations as the hand-computed time-query test.
  std::vector<Time> ea = csa_earliest_arrival(tt, 0, 7 * 3600);
  ASSERT_EQ(ea.size(), 3u);
  EXPECT_EQ(ea[0], 7u * 3600);
  EXPECT_EQ(ea[1], 8u * 3600 + 600);
  EXPECT_EQ(ea[2], 8u * 3600 + 1260);
  ea = csa_earliest_arrival(tt, 0, 8 * 3600 + 300);
  EXPECT_EQ(ea[2], 8u * 3600 + 1800 + 2100);
  // Past the last trip: the next day's first one.
  ea = csa_earliest_arrival(tt, 0, 12 * 3600);
  EXPECT_EQ(ea[1], kDayseconds + 8u * 3600 + 600);
}

TEST(Oracle, ScanChargesTransferOnlyOnAChangeOfTrain) {
  // A -> B -> C on one trip; a second trip B -> C leaves B 30 s after the
  // first reaches it. T(B) = 120: staying seated is free, changing is not.
  TimetableBuilder b;
  const StationId a = b.add_station("A", 0);
  const StationId s2 = b.add_station("B", 120);
  const StationId c = b.add_station("C", 0);
  using St = TimetableBuilder::StopTime;
  b.add_trip(std::vector<St>{{a, 0, 1000}, {s2, 2000, 2000}, {c, 9000, 9000}});
  b.add_trip(std::vector<St>{{s2, 0, 2030}, {c, 2500, 2500}});
  b.add_trip(std::vector<St>{{s2, 0, 2200}, {c, 2900, 2900}});
  const Timetable tt = b.finalize();
  const std::vector<Time> ea = csa_earliest_arrival(tt, a, 0);
  EXPECT_EQ(ea[s2], 2000u);
  EXPECT_EQ(ea[c], 2900u);  // 2030 is inside the transfer window
  // Departing B itself boards the 2030 trip: no origin transfer.
  EXPECT_EQ(csa_earliest_arrival(tt, s2, 2030)[c], 2500u);
}

template <typename Queue>
void sweep_time_query() {
  std::uint64_t seed = 1;
  for (const Timetable& tt : sweep_networks()) {
    const TdGraph g = TdGraph::build(tt);
    TimeQueryT<Queue> q(tt, g);
    for (const Probe& p : probes(tt, seed++, 12)) {
      const std::vector<Time> want =
          csa_earliest_arrival(tt, p.source, p.departure);
      ASSERT_EQ(want.size(), tt.num_stations());
      q.run(p.source, p.departure);
      for (StationId s = 0; s < tt.num_stations(); ++s) {
        ASSERT_EQ(q.arrival_at(s), want[s]) << where(p, s);
      }
      // Target-stopped runs answer the target exactly too.
      const StationId t = (p.source + 1) % tt.num_stations();
      q.run(p.source, p.departure, t);
      ASSERT_EQ(q.arrival_at(t), want[t]) << where(p, t) << " (target run)";
    }
  }
}

TEST(Oracle, TimeQueryBinaryMatchesConnectionScan) {
  sweep_time_query<TimeBinaryQueue>();
}

TEST(Oracle, TimeQueryBucketMatchesConnectionScan) {
  sweep_time_query<TimeBucketQueue>();
}

TEST(Oracle, OverlayTimeQueryMatchesConnectionScan) {
  std::uint64_t seed = 101;
  for (const Timetable& tt : sweep_networks()) {
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    OverlayTimeQuery q(tt, g, ov);
    for (const Probe& p : probes(tt, seed++, 12)) {
      const std::vector<Time> want =
          csa_earliest_arrival(tt, p.source, p.departure);
      ASSERT_EQ(want.size(), tt.num_stations());
      q.run(p.source, p.departure);
      for (StationId s = 0; s < tt.num_stations(); ++s) {
        ASSERT_EQ(q.arrival_at(s), want[s]) << where(p, s);
      }
    }
  }
}

/// Checks the served EA path of a LiveQuerySession against the oracle on
/// the timetable of the epoch it pins.
void expect_live_matches(LiveQuerySession& session, std::uint64_t seed,
                         const std::string& what) {
  session.refresh();
  const Timetable& tt = *session.pinned().tt;
  Rng rng(seed);
  for (const Probe& p : probes(tt, seed, 6)) {
    const std::vector<Time> want =
        csa_earliest_arrival(tt, p.source, p.departure);
    ASSERT_EQ(want.size(), tt.num_stations()) << what;
    for (int k = 0; k < 6; ++k) {
      const auto t = static_cast<StationId>(rng.next_below(tt.num_stations()));
      ASSERT_EQ(session.earliest_arrival(p.source, p.departure, t), want[t])
          << what << ": " << where(p, t);
    }
  }
}

LiveOverlayOptions live_options() {
  LiveOverlayOptions opt;
  opt.contraction.witness_settles = 0;
  return opt;
}

TEST(Oracle, LiveSessionMatchesConnectionScanAcrossEpochs) {
  std::uint64_t seed = 201;
  for (const Timetable& tt : sweep_networks()) {
    LiveOverlay live(Timetable(tt), live_options());
    LiveQuerySession session(live);
    ASSERT_FALSE(session.serving_degraded());
    expect_live_matches(session, seed++, "fresh epoch");

    // Delay and cancel events; each publishes a new epoch whose timetable
    // the oracle reads directly.
    Rng rng(seed);
    for (int e = 0; e < 4; ++e) {
      const Timetable& cur = *live.snapshot()->tt;
      const auto train =
          static_cast<TrainId>(rng.next_below(cur.num_trips()));
      const DelayEvent ev =
          e == 3 ? DelayEvent::cancelled(train)
                 : DelayEvent::delayed(
                       train,
                       static_cast<std::uint32_t>(rng.next_below(
                           cur.trip(train).departures.size() - 1)),
                       static_cast<Time>(60 + rng.next_below(900)));
      const ApplyResult r = live.apply(ev);
      ASSERT_NE(r.status, ApplyStatus::kRejected) << r.error;
      expect_live_matches(session, seed++, "after event " + std::to_string(e));
    }
    EXPECT_GT(session.epoch(), 0u);
  }
}

TEST(Oracle, DegradedLiveSessionMatchesConnectionScan) {
  std::uint64_t seed = 301;
  for (const Timetable& tt : sweep_networks()) {
    FaultInjector faults;
    faults.arm(FaultInjector::Site::kContractionWorker);
    LiveOverlayOptions opt = live_options();
    opt.faults = &faults;
    LiveOverlay live(Timetable(tt), opt);
    ASSERT_TRUE(live.degraded());
    LiveQuerySession session(live);
    ASSERT_TRUE(session.serving_degraded());
    expect_live_matches(session, seed++, "degraded epoch");
  }
}

}  // namespace
}  // namespace pconn
