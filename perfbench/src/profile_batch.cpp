// profile_batch: the paper's Table 1 query. One-to-all profiles from a
// fixed source set on the seeded washington-like network through
// QuerySession::one_to_all, at p=4 and p=1, alternating query by query so
// that both see the same machine state. No server, no live updates: flat
// parallel SPCS, the partition and the serial merge do all the work.
//
// The traced run replays the same queries through the engine's public
// pieces — run_partitioned with the per-thread SPCS run, then
// assemble_profile_into over all stations — to split search from merge
// and to read the per-thread work counters.
#include <algorithm>
#include <memory>
#include <string>

#include "algo/session.hpp"
#include "gen/generator.hpp"
#include "machine.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

using pconn::ParallelSpcs;
using pconn::Profile;
using pconn::QuerySession;
using pconn::QuerySessionOptions;
using pconn::StationId;

constexpr std::size_t kSources = 32;
constexpr int kSetupRepeats = 15;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Batch {
  std::unique_ptr<pconn::TdGraph> graph;
  std::unique_ptr<QuerySession> p4, p1;
};

struct ReplicaRun {
  double search_ms = 0.0;
  double merge_ms = 0.0;
  pconn::QueryStats stats;  // summed over threads
  double imbalance = 0.0;   // max / mean per-thread settled
};

/// One-to-all through the engine's public pieces, as one_to_all runs it:
/// the partitioned per-thread search, then the merge over all stations.
ReplicaRun replica_one_to_all(ParallelSpcs& eng, StationId s,
                              std::vector<Profile>& out, Tracer& tracer,
                              std::uint64_t op, std::uint32_t parent) {
  const pconn::ParallelSpcsOptions& po = eng.options();
  const pconn::SpcsOptions o{.self_pruning = po.self_pruning,
                             .stopping_criterion = false,
                             .prune_on_relax = po.prune_on_relax,
                             .relax = po.relax,
                             .batch_min_edges = po.batch_min_edges};
  const pconn::Timetable& tt = eng.timetable();
  ReplicaRun rr;
  Clock::time_point t0 = Clock::now();
  {
    const SpanScope span(tracer, "spcs.run_partitioned", op, parent);
    eng.run_partitioned(s, [&](std::size_t t, std::uint32_t lo, std::uint32_t hi) {
      const Clock::time_point ts = Clock::now();
      pconn::NoHook hook;
      eng.thread_state(t).run(eng.graph(), tt, tt.outgoing(s), lo, hi,
                              pconn::kInvalidStation, o, hook);
      tracer.record("spcs.thread", op, span.id(), ts, Clock::now());
    });
  }
  Clock::time_point t1 = Clock::now();
  rr.search_ms = ms_between(t0, t1);
  {
    const SpanScope span(tracer, "spcs.merge", op, parent);
    out.resize(tt.num_stations());
    for (StationId v = 0; v < tt.num_stations(); ++v) {
      eng.assemble_profile_into(s, v, out[v]);
    }
  }
  rr.merge_ms = ms_between(t1, Clock::now());
  std::uint64_t max_settled = 0;
  for (unsigned t = 0; t < po.threads; ++t) {
    const pconn::QueryStats& st = eng.thread_state(t).stats();
    rr.stats += st;
    max_settled = std::max(max_settled, st.settled);
  }
  const double mean = static_cast<double>(rr.stats.settled) / po.threads;
  rr.imbalance = mean > 0 ? static_cast<double>(max_settled) / mean : 1.0;
  return rr;
}

}  // namespace

Results run_profile_batch(const RunConfig& cfg, Tracer& tracer) {
  Results r;
  const pconn::Timetable tt =
      pconn::gen::make_preset(pconn::gen::Preset::kWashingtonLike, 1.0, cfg.seed);
  r.line("network washington-like seed " + std::to_string(cfg.seed) + ": " +
         std::to_string(tt.num_stations()) + " stations, " +
         std::to_string(tt.num_connections()) + " connections");

  // Sources stratified over the conn(S) distribution: the station at the
  // middle of each of kSources equal slices of the stations ordered by
  // |conn(S)|. Query cost and the engines' scratch (sized by the widest
  // source) grow with |conn(S)|, and the few widest hubs differ by 35%
  // between seeds, so a random draw would move p90 and peak memory with
  // the luck of the draw; the strata keep the mix the same shape.
  std::vector<StationId> sources;
  {
    std::vector<StationId> by_width(tt.num_stations());
    for (StationId s = 0; s < tt.num_stations(); ++s) by_width[s] = s;
    std::stable_sort(by_width.begin(), by_width.end(), [&](StationId a, StationId b) {
      return tt.outgoing(a).size() < tt.outgoing(b).size();
    });
    for (std::size_t k = 0; k < kSources; ++k) {
      sources.push_back(by_width[(2 * k + 1) * by_width.size() / (2 * kSources)]);
    }
  }

  // Set-up: graph build plus both sessions with their engines constructed,
  // so the next one_to_all can run. Median of kSetupRepeats.
  Batch b;
  std::vector<double> setup_s, graph_ms;
  for (int k = 0; k < kSetupRepeats; ++k) {
    b.p4.reset();  // sessions before the graph they view
    b.p1.reset();
    b.graph.reset();
    const std::uint64_t op = tracer.next_op();
    const Clock::time_point t0 = Clock::now();
    {
      const SpanScope setup(tracer, "setup", op);
      {
        const SpanScope s(tracer, "setup.graph_build", op, setup.id());
        b.graph = std::make_unique<pconn::TdGraph>(pconn::TdGraph::build(tt));
      }
      graph_ms.push_back(ms_between(t0, Clock::now()));
      const SpanScope s(tracer, "setup.sessions", op, setup.id());
      QuerySessionOptions o4;
      o4.threads = 4;
      b.p4 = std::make_unique<QuerySession>(tt, *b.graph, o4);
      b.p4->profile_engine();
      b.p1 = std::make_unique<QuerySession>(tt, *b.graph, QuerySessionOptions{});
      b.p1->profile_engine();
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  r.add_e2e("setup_s", median(setup_s), "s",
            "median of " + std::to_string(kSetupRepeats) +
                " set-ups: TdGraph::build + p=4 and p=1 sessions with engines");

  // Warm-up, untimed: the first queries of a process run far slower than
  // later ones (first touch of the engines' scratch).
  {
    const Clock::time_point t0 = Clock::now();
    for (StationId s : sources) (void)b.p4->one_to_all(s);
    for (std::size_t i = 1; i <= 4; ++i) (void)b.p1->one_to_all(sources[kSources - i]);
    r.add_layer("warmup_s", ms_between(t0, Clock::now()) / 1e3, "s",
                "untimed: one p=4 pass over the sources, p=1 on the 4 widest");
  }

  // Timed window: p=4 and p=1 alternate on the same source.
  const double secs = cfg.trace ? 0.5 * cfg.seconds : cfg.seconds;
  std::vector<double> p4_ms, p1_ms;
  const Clock::time_point w0 = Clock::now();
  for (std::size_t i = 0; ms_between(w0, Clock::now()) < secs * 1e3; ++i) {
    const StationId s = sources[i % kSources];
    Clock::time_point t0 = Clock::now();
    (void)b.p4->one_to_all(s);
    Clock::time_point t1 = Clock::now();
    (void)b.p1->one_to_all(s);
    p4_ms.push_back(ms_between(t0, t1));
    p1_ms.push_back(ms_between(t1, Clock::now()));
  }
  const double peak_mb = peak_rss_mib();
  const Percentile o50 = percentile(p4_ms, 0.5);
  r.add_e2e("o2a_p50_ms", o50.value, "ms", "p=4, " + pct_note(o50));
  add_tail_e2e(r, "o2a_p90_ms", percentile(p4_ms, 0.9), "ms");
  const Percentile seq50 = percentile(p1_ms, 0.5);
  r.add_e2e("o2a_seq_p50_ms", seq50.value, "ms", "p=1, " + pct_note(seq50));
  r.add_e2e("peak_rss_mb", peak_mb, "MiB",
            "ru_maxrss at the end of the timed window, before the checks");
  r.attempted = p4_ms.size() + p1_ms.size();

  // Traced window and counters: the replica at p=4, then one pass over the
  // sources at p=1 for the sequential baseline's work.
  std::vector<std::vector<Profile>> replica_profiles(kSources);
  if (cfg.trace) {
    ParallelSpcs& e4 = b.p4->profile_engine();
    std::vector<double> total_ms, search_ms, merge_ms;
    std::vector<Profile> scratch;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; ms_between(t0, Clock::now()) < secs * 1e3; ++i) {
      const std::uint64_t op = tracer.next_op();
      const Clock::time_point q0 = Clock::now();
      ReplicaRun rr;
      {
        const SpanScope span(tracer, "o2a", op);
        rr = replica_one_to_all(e4, sources[i % kSources], scratch, tracer, op, span.id());
      }
      total_ms.push_back(ms_between(q0, Clock::now()));
      search_ms.push_back(rr.search_ms);
      merge_ms.push_back(rr.merge_ms);
    }
    r.add_layer("trace.overhead_frac", median(total_ms) / o50.value - 1.0, "ratio",
                "traced replica p=4 p50 / untraced one_to_all p50 - 1");
    r.add_layer("spcs.search_ms", median(search_ms), "ms",
                "run_partitioned at p=4, median of " + std::to_string(search_ms.size()));
    r.add_layer("spcs.merge_ms", median(merge_ms), "ms",
                "assemble_profile_into over all stations at p=4, median");

    // Deterministic counters: one pass over the sources at each p.
    pconn::QueryStats w4, w1;
    double imbalance = 0.0, p1_search_ms = 0.0;
    ParallelSpcs& e1 = b.p1->profile_engine();
    for (std::size_t i = 0; i < kSources; ++i) {
      const std::uint64_t op = tracer.next_op();
      const ReplicaRun r4 = replica_one_to_all(e4, sources[i], replica_profiles[i], tracer, op, 0);
      w4 += r4.stats;
      imbalance += r4.imbalance / kSources;
      const ReplicaRun r1 = replica_one_to_all(e1, sources[i], scratch, tracer, op, 0);
      w1 += r1.stats;
      p1_search_ms += r1.search_ms;
    }
    const std::string over = "summed over one pass of the " + std::to_string(kSources) +
                             " sources at p=4";
    r.add_layer("spcs.settled", static_cast<double>(w4.settled), "count", over);
    r.add_layer("spcs.relaxed", static_cast<double>(w4.relaxed), "count", over);
    r.add_layer("spcs.self_pruned", static_cast<double>(w4.self_pruned), "count", over);
    r.add_layer("spcs.thread_settled_imbalance", imbalance, "ratio",
                "max/mean per-thread settled at p=4, mean over the sources");
    r.add_layer("spcs.redundant_settled_frac",
                static_cast<double>(w4.settled) / static_cast<double>(w1.settled) - 1.0,
                "ratio", "settled at p=4 / settled at p=1 - 1");
    r.add_layer("spcs.ns_per_settled", p1_search_ms * 1e6 / static_cast<double>(w1.settled),
                "ns", "p=1 search time / settled over the pass");
    r.add_layer("spcs.speedup", seq50.value / o50.value, "ratio",
                "o2a_seq_p50_ms / o2a_p50_ms (Table 1 shape)");
    r.add_layer("graph.build_ms", median(graph_ms), "ms", "TdGraph::build, median of set-ups");
    r.add_layer("graph.mib", static_cast<double>(b.graph->memory_bytes()) / (1 << 20), "MiB",
                "TdGraph::memory_bytes");
  }

  // Check: p=4 profiles byte-identical to p=1 for every source (and the
  // traced replica identical to one_to_all).
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < kSources; ++i) {
    const std::vector<Profile> seq = b.p1->one_to_all(sources[i]).profiles;
    const std::vector<Profile>& par = b.p4->one_to_all(sources[i]).profiles;
    if (seq != par) ++bad;
    if (cfg.trace && replica_profiles[i] != par) ++bad;
  }
  r.mismatches = bad;
  r.failed = bad;
  r.line("check: " + std::to_string(bad) + " of " + std::to_string(kSources) +
         " sources differ between p=4 and p=1" +
         (cfg.trace ? " (or between the replica and one_to_all)" : ""));
  return r;
}

}  // namespace perfbench
