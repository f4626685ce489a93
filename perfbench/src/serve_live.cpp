// serve_live: reads and writes together on germany-like, 2 server workers.
// One generator thread sends an open loop of mixed reads (about 9
// earliest-arrival to 1 profile) while an updater thread applies a seeded
// stream of delay events (mostly kDelay, some kCancel) through
// LiveOverlay::apply at a fixed rate. The only workload that exercises
// re-link/re-contraction, epoch publish, session rebind with lazy engine
// rebuild, and served overlay-SPCS profiles.
//
// After timing, a fresh LiveOverlay replays the accepted events in order;
// at each epoch every response stamped with that epoch is compared byte
// for byte with a direct session answer. The replay also yields the
// deterministic live counters and, on a traced run, the refresh and cold
// query costs of a bench-owned session after each publish.
#include <algorithm>
#include <string>
#include <thread>

#include "gen/generator.hpp"
#include "live/live_session.hpp"
#include "machine.hpp"
#include "serve_common.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using pconn::ApplyStatus;
using pconn::DelayEvent;
using pconn::LiveOverlay;
using pconn::LiveQuerySession;
using pconn::Opcode;

constexpr double kProfileShare = 0.1;
constexpr double kReadQps = 3000.0;
constexpr double kUpdatesPerS = 20.0;

struct EventRecord {
  DelayEvent ev;
  ApplyStatus status = ApplyStatus::kRejected;
  std::uint64_t epoch = 0;
  bool degraded = false;
  Clock::time_point hand;  // handed to apply()
  Clock::time_point done;
  double relink_ms = 0.0;
};

/// One seeded event against the currently published timetable: a delay of
/// 1-15 minutes held at a random stop of a random trip, or (1 in 10) the
/// cancellation of a random trip.
DelayEvent make_event(pconn::Rng& rng, const pconn::Timetable& tt) {
  const auto train = static_cast<pconn::TrainId>(rng.next_below(tt.num_trips()));
  if (rng.next_below(10) == 0) return DelayEvent::cancelled(train);
  const auto stops = tt.route(tt.trip(train).route).stops.size();
  const auto stop = static_cast<std::uint32_t>(rng.next_below(stops));
  const auto delay = static_cast<pconn::Time>(60 + rng.next_below(841));
  return DelayEvent::delayed(train, stop, delay);
}

struct LiveWindow {
  std::vector<LoadRequest> reqs;
  LoadWindow w;
  std::vector<EventRecord> events;
  std::size_t retired_pinned_max = 0;
};

/// Runs one read window of `secs` with the updater applying events at
/// kUpdatesPerS during it. The event stream continues `rng`.
LiveWindow run_window(const ServedNetwork& net, const pconn::Timetable& tt,
                      double secs, std::uint64_t read_seed, pconn::Rng& rng,
                      Tracer* tracer) {
  const std::uint16_t port = net.server->port();
  LiveOverlay& live = *net.live;
  const bool pinned = net.pinned;
  LiveWindow lw;
  lw.reqs = make_requests(tt, OpenLoopSchedule{kReadQps}.count(secs),
                          read_seed, kProfileShare);
  // Events stop a quarter second before the reads so that every publish
  // is followed by reads that can observe it.
  const OpenLoopSchedule ev_sched{kUpdatesPerS};
  const std::uint64_t n_events = ev_sched.count(std::max(0.0, secs - 0.25));
  const Clock::time_point start = Clock::now();
  std::thread updater([&] {
    // The updater competes with the server, not with the generator.
    if (pinned) pin_thread(0, kServerCpus);
    for (std::uint64_t k = 0; k < n_events; ++k) {
      std::this_thread::sleep_until(start +
                                    std::chrono::nanoseconds(ev_sched.due_ns(k)));
      EventRecord rec;
      rec.ev = make_event(rng, *live.snapshot()->tt);
      const std::uint64_t op = tracer != nullptr ? tracer->next_op() : 0;
      rec.hand = Clock::now();
      const pconn::ApplyResult res = live.apply(rec.ev);
      rec.done = Clock::now();
      if (tracer != nullptr) tracer->record("event.apply", op, 0, rec.hand, rec.done);
      rec.status = res.status;
      rec.epoch = res.epoch;
      rec.degraded = res.status == ApplyStatus::kDegraded;
      rec.relink_ms = res.relink.time_ms;
      lw.events.push_back(std::move(rec));
      lw.retired_pinned_max = std::max(lw.retired_pinned_max, live.retired_pinned());
    }
  });
  lw.w = run_open_loop(port, lw.reqs, kReadQps, kConnections, true, tracer);
  updater.join();
  return lw;
}

/// Per published event: time from hand-off to apply() until the first
/// response stamped with that epoch or a later one (+inf when none came).
std::vector<double> staleness_ms(const std::vector<const LiveWindow*>& windows) {
  std::uint64_t max_epoch = 0;
  for (const LiveWindow* lw : windows) {
    for (const EventRecord& e : lw->events) max_epoch = std::max(max_epoch, e.epoch);
  }
  std::vector<Clock::time_point> first(max_epoch + 2, Clock::time_point::max());
  for (const LiveWindow* lw : windows) {
    for (std::size_t i = 0; i < lw->w.out.size(); ++i) {
      if (!lw->w.ok(i)) continue;
      const std::uint64_t e = std::min(lw->w.out[i].epoch, max_epoch + 1);
      first[e] = std::min(first[e], lw->w.recv_time(i));
    }
  }
  for (std::size_t e = first.size() - 1; e-- > 0;) first[e] = std::min(first[e], first[e + 1]);
  std::vector<double> out;
  for (const LiveWindow* lw : windows) {
    for (const EventRecord& e : lw->events) {
      if (e.status == ApplyStatus::kRejected) continue;
      const Clock::time_point t = first[e.epoch];
      out.push_back(t == Clock::time_point::max()
                        ? kInf
                        : std::chrono::duration<double, std::milli>(t - e.hand).count());
    }
  }
  return out;
}

}  // namespace

Results run_serve_live(const RunConfig& cfg, Tracer& tracer) {
  Results r;
  const pconn::Timetable tt =
      pconn::gen::make_preset(pconn::gen::Preset::kGermanyLike, 1.0, cfg.seed);
  r.line("network germany-like seed " + std::to_string(cfg.seed) + ": " +
         std::to_string(tt.num_stations()) + " stations, " +
         std::to_string(tt.num_connections()) + " connections");
  ServedNetwork net = set_up_served(tt, tracer, r);
  const std::uint16_t port = net.server->port();

  {
    const Clock::time_point t0 = Clock::now();
    const auto warm = make_requests(
        tt, OpenLoopSchedule{kReadQps}.count(0.5), cfg.seed + 101, kProfileShare);
    (void)run_open_loop(port, warm, kReadQps, kConnections, false, nullptr);
    r.add_layer("warmup_s", to_ns(Clock::now() - t0) / 1e9, "s",
                "untimed read-only warm-up window of 0.5 s");
  }

  pconn::Rng event_rng(cfg.seed * 0x9e3779b97f4a7c15ull + 17);
  const double secs = cfg.trace ? 0.5 * cfg.seconds : cfg.seconds;
  const auto hist0 = net.server->accepted_latency_hist();
  const pconn::ServerStats stats0 = net.server->stats();
  const LiveWindow lw = run_window(net, tt, secs, cfg.seed, event_rng, nullptr);
  const auto hist1 = net.server->accepted_latency_hist();
  const pconn::ServerStats stats1 = net.server->stats();
  if (!lw.w.error.empty()) r.line("generator: " + lw.w.error);

  std::vector<const LiveWindow*> windows{&lw};
  LiveWindow lwt;
  if (cfg.trace) {
    lwt = run_window(net, tt, secs, cfg.seed + 7, event_rng, &tracer);
    windows.push_back(&lwt);
  }
  const double peak_mb = peak_rss_mib();
  pin_thread(0, {});  // the checks may use every CPU

  // End-to-end metrics of the untraced window.
  const double p50 = add_latency_e2e(r, "read", lw.w.latencies_us());
  {
    // The two read classes apart. The mix's own p90 and p99 sit on class
    // boundaries: 1 read in 10 is a profile, and ~1.3% are the first query
    // of a worker after a publish (lazy engine rebuild).
    std::vector<double> ea_us, profile_us;
    for (std::size_t i = 0; i < lw.reqs.size(); ++i) {
      (lw.reqs[i].op == Opcode::kProfile ? profile_us : ea_us).push_back(lw.w.latency_us(i));
    }
    const Percentile ea90 = percentile(ea_us, 0.9);
    const Percentile ea99 = percentile(ea_us, 0.99);
    const Percentile pr50 = percentile(profile_us, 0.5);
    add_tail_e2e(r, "read_ea_p90_us", ea90, "us");
    add_tail_e2e(r, "read_ea_p99_us", ea99, "us");
    r.add_e2e("read_profile_p50_us", pr50.value, "us", pct_note(pr50));
  }
  r.attempted = lw.w.out.size();
  r.failed = lw.w.failed();
  std::vector<double> apply_ms, relink_ms;
  for (const EventRecord& e : lw.events) {
    apply_ms.push_back(std::chrono::duration<double, std::milli>(e.done - e.hand).count());
    if (e.status == ApplyStatus::kRelinked) relink_ms.push_back(e.relink_ms);
  }
  const Percentile up50 = percentile(apply_ms, 0.5);
  r.add_e2e("update_p50_ms", up50.value, "ms", "LiveOverlay::apply per event, " + pct_note(up50));
  const std::vector<double> stale = staleness_ms({&lw});
  const Percentile st90 = percentile(stale, 0.9);
  add_tail_e2e(r, "staleness_p90_ms", st90, "ms");
  r.add_e2e("peak_rss_mb", peak_mb, "MiB",
            "ru_maxrss at the end of the timed windows, before the checks");
  r.line("window: " + std::to_string(kReadQps) + " reads/s (1 in " +
         std::to_string(static_cast<int>(1 / kProfileShare)) + " a profile) for " +
         std::to_string(secs) + " s, " + std::to_string(lw.events.size()) +
         " delay events at " + std::to_string(kUpdatesPerS) + "/s");
  if (cfg.trace) {
    const double p50t = percentile(lwt.w.latencies_us(), 0.5).value;
    r.add_layer("trace.overhead_frac", p50t / p50 - 1.0, "ratio",
                "traced window read p50 / untraced read p50 - 1");
    // Per event: staleness minus the apply itself.
    std::vector<double> p2r;
    std::size_t k = 0;
    for (const EventRecord& e : lw.events) {
      if (e.status == ApplyStatus::kRejected) continue;
      p2r.push_back(stale[k++] -
                    std::chrono::duration<double, std::milli>(e.done - e.hand).count());
    }
    const Percentile p2r90 = percentile(p2r, 0.9);
    r.add_layer("live.publish_to_read_p90_ms", p2r90.value, "ms", pct_note(p2r90));
    r.add_layer("live.retired_pinned_max", static_cast<double>(lw.retired_pinned_max),
                "count", "max LiveOverlay::retired_pinned() after each apply");
    r.add_layer("live.relink_ms", median(relink_ms), "ms",
                "RelinkStats::time_ms, median over " + std::to_string(relink_ms.size()) +
                    " served re-links");
    const Percentile late = percentile(lw.w.late_us(), 0.99);
    r.add_layer("loadgen.late_p99_us", late.value, "us",
                "send time minus due time, " + pct_note(late));
    add_server_layer(r, hist0, hist1, stats0, stats1, p50);
    add_protocol_layer(r, lw.w);
  }
  net.server->stop();

  // Replay on a fresh overlay: direct-call layers at epoch 0, then every
  // accepted event in order with the responses of each epoch checked.
  LiveOverlay replay{pconn::Timetable(tt)};
  if (cfg.trace) {
    add_time_replay(r, replay, lw.reqs, 20'000, tracer);
    LiveQuerySession s(replay);
    std::vector<double> us;
    std::uint64_t settled = 0;
    for (const LoadRequest& q : lw.reqs) {
      if (us.size() >= 1000) break;
      if (q.op != Opcode::kProfile) continue;
      const std::uint64_t op = tracer.next_op();
      const Clock::time_point t0 = Clock::now();
      const auto& res = s.station_to_station(q.a, q.b);
      const Clock::time_point t1 = Clock::now();
      tracer.record("replay.station_to_station", op, 0, t0, t1);
      us.push_back(to_ns(t1 - t0) / 1e3);
      settled += res.stats.settled;
    }
    const Percentile p50s = percentile(us, 0.5), p99s = percentile(us, 0.99);
    r.add_layer("overlay_spcs.profile_p50_us", p50s.value, "us",
                "direct station_to_station on epoch 0, " + pct_note(p50s));
    r.add_layer("overlay_spcs.profile_p99_us", p99s.supported() ? p99s.value : 0.0, "us",
                "direct station_to_station on epoch 0, " + pct_note(p99s));
    r.add_layer("overlay_spcs.profile_settled", static_cast<double>(settled), "count",
                "QueryStats::settled summed over " + std::to_string(us.size()) + " queries");
  }

  // Responses grouped by the epoch in their header, per window.
  std::vector<std::vector<std::vector<std::size_t>>> by_epoch(windows.size());
  std::uint64_t max_epoch = 0;
  for (const LiveWindow* w : windows) {
    for (const LoadOutcome& o : w->w.out) max_epoch = std::max(max_epoch, o.epoch);
  }
  for (std::size_t k = 0; k < windows.size(); ++k) {
    by_epoch[k].resize(max_epoch + 1);
    for (std::size_t i = 0; i < windows[k]->w.out.size(); ++i) {
      if (windows[k]->w.ok(i)) by_epoch[k][windows[k]->w.out[i].epoch].push_back(i);
    }
  }
  std::uint64_t mismatches = 0, nominal_bad = 0;
  auto check_epoch = [&](std::uint64_t e, bool degraded) {
    if (e > max_epoch) return;
    for (std::size_t k = 0; k < windows.size(); ++k) {
      const std::uint64_t bad = check_responses(replay, windows[k]->w, windows[k]->reqs,
                                                by_epoch[k][e], degraded);
      mismatches += bad;
      if (k == 0) nominal_bad += bad;
    }
  };
  check_epoch(0, replay.degraded());
  LiveQuerySession probe(replay);
  std::vector<double> refresh_us, cold_ea_us, cold_profile_us;
  std::uint64_t recomputed_points = 0;
  std::size_t q = 0;
  bool diverged = false;
  for (const LiveWindow* w : windows) {
    for (const EventRecord& e : w->events) {
      if (e.status == ApplyStatus::kRejected) continue;
      const std::uint64_t op = tracer.next_op();
      const SpanScope ev(tracer, "event", op);
      pconn::ApplyResult res;
      {
        const SpanScope s(tracer, "event.apply", op, ev.id());
        res = replay.apply(e.ev);
      }
      if (res.epoch != e.epoch) diverged = true;
      if (res.status == ApplyStatus::kRelinked) recomputed_points += res.relink.recomputed_points;
      if (cfg.trace) {
        // A bench-owned session follows the publish: refresh, then the
        // first query of each kind rebuilds its engine lazily.
        const LoadRequest& ea = lw.reqs[q++ % lw.reqs.size()];
        Clock::time_point t0 = Clock::now();
        {
          const SpanScope s(tracer, "session.refresh", op, ev.id());
          probe.refresh();
        }
        refresh_us.push_back(to_ns(Clock::now() - t0) / 1e3);
        t0 = Clock::now();
        {
          const SpanScope s(tracer, "session.cold_ea", op, ev.id());
          (void)probe.earliest_arrival(ea.a, ea.op == Opcode::kProfile ? 0 : ea.b,
                                       ea.op == Opcode::kProfile ? ea.b : ea.c);
        }
        cold_ea_us.push_back(to_ns(Clock::now() - t0) / 1e3);
        t0 = Clock::now();
        {
          const SpanScope s(tracer, "session.cold_profile", op, ev.id());
          (void)probe.station_to_station(ea.a, ea.op == Opcode::kProfile ? ea.b : ea.c);
        }
        cold_profile_us.push_back(to_ns(Clock::now() - t0) / 1e3);
      }
      const SpanScope s(tracer, "event.check", op, ev.id());
      check_epoch(res.epoch, e.degraded);
    }
  }
  if (diverged) r.fail_check("the replayed event stream published different epochs");
  r.mismatches = mismatches;
  r.failed += nominal_bad;
  r.line("check: " + std::to_string(mismatches) +
         " responses differ from direct answers on their stamped epoch");

  if (cfg.trace) {
    const pconn::LiveUpdateStats& ls = replay.stats();
    const std::string note = "replay of the " + std::to_string(ls.events_applied) +
                             " accepted events, LiveUpdateStats";
    r.add_layer("live.recomputed_points", static_cast<double>(recomputed_points), "count",
                "RelinkStats::recomputed_points summed over the replay");
    r.add_layer("live.relinks", static_cast<double>(ls.relinks), "count", note);
    r.add_layer("live.recontractions", static_cast<double>(ls.recontractions), "count", note);
    r.add_layer("live.degradations", static_cast<double>(ls.degradations), "count", note);
    r.add_layer("session.refresh_us", median(refresh_us), "us",
                "LiveQuerySession::refresh after each publish, median of " +
                    std::to_string(refresh_us.size()));
    r.add_layer("session.cold_ea_us", median(cold_ea_us), "us",
                "first earliest_arrival after a rebind, median");
    r.add_layer("session.cold_profile_us", median(cold_profile_us), "us",
                "first station_to_station after a rebind, median");
  }
  return r;
}

}  // namespace perfbench
