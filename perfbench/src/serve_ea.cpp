// serve_ea: an open loop of earliest-arrival requests through the socket
// on oahu-like, 2 server workers, one generator thread, no updates. The
// engine is cheap here, so about half of each request is server I/O,
// parsing, queueing and encoding.
//
// Phases: kSetupRepeats set-ups (setup_s), 0.5 s untimed warm-up, the
// nominal window at --ea-qps (ea_p*_us, fail_frac, peak_rss_mb), the EA
// rate ladder (ea_max_qps), the kPing ladder (the generator's own
// ceiling), then the byte-identity check of every answer.
#include <cstdio>
#include <string>

#include "gen/generator.hpp"
#include "machine.hpp"
#include "serve_common.hpp"

namespace perfbench {
namespace {

/// Latency limit of the rate ladder on p99, and the failure share a rung
/// may have.
constexpr double kLadderP99LimitUs = 1000.0;
constexpr double kLadderFailLimit = 0.001;
/// Rungs as multiples of the nominal rate; the ladder stops at the first
/// rung that misses a limit.
constexpr double kEaRungs[] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0};
constexpr double kPingRungs[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0};
constexpr double kEaRungSeconds = 0.5;
constexpr double kPingRungSeconds = 0.4;

struct Rung {
  double rate = 0.0;
  Percentile p99;
  double fail_frac = 0.0;
  double late_p99_us = 0.0;
  bool pass = false;
};

Rung evaluate(const LoadWindow& w, double rate) {
  Rung g;
  g.rate = rate;
  g.p99 = percentile(w.latencies_us(), 0.99);
  g.fail_frac = static_cast<double>(w.failed()) /
                static_cast<double>(std::max<std::size_t>(1, w.out.size()));
  g.late_p99_us = percentile(w.late_us(), 0.99).value;
  // The generator must keep its schedule: a sender that keeps falling
  // behind shows as lateness beyond the latency limit.
  g.pass = g.p99.supported() && g.p99.value <= kLadderP99LimitUs &&
           g.fail_frac <= kLadderFailLimit &&
           g.late_p99_us <= kLadderP99LimitUs;
  return g;
}

std::string rung_line(const char* what, const Rung& g) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%s rung %.0f req/s: p99 %.1f us (%s), fail %.4f, "
                "generator late p99 %.1f us -> %s",
                what, g.rate, g.p99.value, pct_note(g.p99).c_str(),
                g.fail_frac, g.late_p99_us, g.pass ? "pass" : "FAIL");
  return buf;
}

std::string distribution_line(const char* what, const std::vector<double>& us) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%s us: p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f  max %.1f (n=%zu)",
                what, percentile(us, 0.5).value, percentile(us, 0.9).value,
                percentile(us, 0.99).value, percentile(us, 0.999).value,
                percentile(us, 1.0).value, us.size());
  return buf;
}

}  // namespace

Results run_serve_ea(const RunConfig& cfg, Tracer& tracer) {
  Results r;
  const pconn::Timetable tt =
      pconn::gen::make_preset(pconn::gen::Preset::kOahuLike, 1.0, cfg.seed);
  r.line("network oahu-like seed " + std::to_string(cfg.seed) + ": " +
         std::to_string(tt.num_stations()) + " stations, " +
         std::to_string(tt.num_connections()) + " connections");
  ServedNetwork net = set_up_served(tt, tracer, r);
  const std::uint16_t port = net.server->port();
  const double rate = cfg.ea_qps;
  const OpenLoopSchedule sched{rate};

  // Half the run is the nominal window (split untraced/traced on a traced
  // run); the ladders take at most 2 * (9 * 0.5 + 7 * 0.4) s after it.
  const double nominal_s = cfg.trace ? 0.25 * cfg.seconds : 0.5 * cfg.seconds;

  {
    const Clock::time_point t0 = Clock::now();
    const auto warm = make_requests(tt, sched.count(0.5), cfg.seed + 101, 0.0);
    (void)run_open_loop(port, warm, rate, kConnections, false, nullptr);
    r.add_layer("warmup_s", to_ns(Clock::now() - t0) / 1e9, "s",
                "untimed warm-up window of 0.5 s at the nominal rate");
  }

  // Nominal window.
  const auto reqs = make_requests(tt, sched.count(nominal_s), cfg.seed, 0.0);
  const auto hist0 = net.server->accepted_latency_hist();
  const pconn::ServerStats stats0 = net.server->stats();
  const LoadWindow w = run_open_loop(port, reqs, rate, kConnections, true, nullptr);
  const auto hist1 = net.server->accepted_latency_hist();
  const pconn::ServerStats stats1 = net.server->stats();
  if (!w.error.empty()) r.line("generator: " + w.error);
  const double p50 = add_latency_e2e(r, "ea", w.latencies_us());
  r.attempted = w.out.size();
  r.failed = w.failed();
  r.line("nominal window: " + std::to_string(rate) + " req/s for " +
         std::to_string(nominal_s) + " s, open loop, " +
         std::to_string(kConnections) + " connections, 1 generator thread");
  const Percentile late = percentile(w.late_us(), 0.99);
  r.add_layer("loadgen.late_p99_us", late.value, "us",
              "send time minus due time, " + pct_note(late));
  r.line(distribution_line("generator lateness", w.late_us()));
  r.line(distribution_line("ea latency", w.latencies_us()));
  // Before the ladders, whose kept answers are the harness's own memory.
  r.add_e2e("peak_rss_mb", peak_rss_mib(), "MiB",
            "ru_maxrss after the nominal window, before the ladders and checks");

  // Traced twin of the nominal window: same rate, the generator records a
  // span per request. Its p50 against the untraced one is the overhead.
  LoadWindow wt;
  std::vector<LoadRequest> reqs_t;
  if (cfg.trace) {
    reqs_t = make_requests(tt, sched.count(nominal_s), cfg.seed + 7, 0.0);
    wt = run_open_loop(port, reqs_t, rate, kConnections, true, &tracer);
    const double p50t = percentile(wt.latencies_us(), 0.5).value;
    r.add_layer("trace.overhead_frac", p50t / p50 - 1.0, "ratio",
                "traced window ea p50 / untraced ea p50 - 1");
  }

  // Rate ladders. A rung passes when one of two tries meets every limit,
  // so that a single machine stall inside a short rung does not end the
  // ladder; the ladder stops at the first rung that fails both. EA rungs
  // keep their answers for the check.
  std::vector<std::vector<LoadRequest>> rung_reqs;
  std::vector<LoadWindow> rung_windows;
  auto climb = [&](const char* what, const auto& rungs, double rung_s, bool ea) {
    double top = 0.0;
    for (double m : rungs) {
      const double rr = m * rate;
      const std::size_t n = OpenLoopSchedule{rr}.count(rung_s);
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        std::vector<LoadRequest> q =
            ea ? make_requests(tt, n, cfg.seed + 1000 + rung_reqs.size(), 0.0)
               : std::vector<LoadRequest>(n);  // kPing
        LoadWindow lw = run_open_loop(port, q, rr, kConnections, ea, nullptr);
        const Rung g = evaluate(lw, rr);
        r.line(rung_line(what, g));
        pass = g.pass;
        if (ea) {
          rung_reqs.push_back(std::move(q));
          rung_windows.push_back(std::move(lw));
        }
      }
      if (!pass) break;
      top = rr;
    }
    return top;
  };
  const double ea_max = climb("EA", kEaRungs, kEaRungSeconds, true);
  r.add_e2e("ea_max_qps", ea_max, "req/s",
            "highest passing rung (p99 <= 1000 us, fail <= 0.001, generator "
            "late p99 <= 1000 us); rungs of " + std::to_string(kEaRungSeconds) +
                " s, best of two tries");
  // Ping ladder: the same generator on the cheapest request the server
  // has. Its top passing rung bounds what the harness itself can drive.
  const double ping_max = climb("ping", kPingRungs, kPingRungSeconds, false);
  r.add_layer("loadgen.ping_max_qps", ping_max, "req/s",
              "highest passing kPing rung, same limits as the EA ladder");
  r.line(ping_max > ea_max
             ? "harness check: EA ceiling is below the generator's ping ceiling"
             : "harness check: WARNING, ea_max_qps is not below the ping "
               "ceiling; the ladder may be harness-limited");

  pin_thread(0, {});  // the checks may use every CPU

  // Byte-identity of every answer against direct session answers.
  const bool degraded = net.live->degraded();
  auto all = [](const LoadWindow& x) {
    std::vector<std::size_t> idx(x.out.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    return idx;
  };
  const std::uint64_t nominal_bad =
      check_responses(*net.live, w, reqs, all(w), degraded);
  std::uint64_t mismatches = nominal_bad;
  for (std::size_t k = 0; k < rung_windows.size(); ++k) {
    mismatches += check_responses(*net.live, rung_windows[k], rung_reqs[k],
                                  all(rung_windows[k]), degraded);
  }
  if (cfg.trace) {
    mismatches += check_responses(*net.live, wt, reqs_t, all(wt), degraded);
  }
  r.mismatches = mismatches;
  r.failed += nominal_bad;
  r.line("check: " + std::to_string(mismatches) +
         " responses differ from direct LiveQuerySession answers");

  if (cfg.trace) {
    add_server_layer(r, hist0, hist1, stats0, stats1, p50);
    add_protocol_layer(r, w);
    add_time_replay(r, *net.live, reqs, 20'000, tracer);
  }
  net.server->stop();
  return r;
}

}  // namespace perfbench
