// Warm vs cold repeated-query throughput — the workspace-reuse bench.
//
// The paper reports per-query latency on a warmed-up process; a server
// answering streams of queries cares about the difference between
//  * cold — construct the engine (thread pool, per-thread workspaces,
//    |V| x |conn(S)| scratch) for every query, the naive per-request path;
//  * warm — one QuerySession per worker, constructed once; queries reuse
//    every scratch array and result buffer (zero allocations once warm,
//    tests/session_test.cpp).
// Workloads: the Table-1 one-to-all profile query (headline numbers) and
// the point-to-point time query mix. JSON output (--json) is archived by
// CI as BENCH_reuse.json; `warm_speedup` is the one-to-all geometric mean
// over the networks and is expected to stay >= 1.1.
//
// Both paths run the served configuration — QuerySession's default engine
// types (the bucket queue for SPCS, docs/queues.md), i.e. what a server
// actually deploys; --queue does not apply here. The faster the query, the
// larger the share the cold path wastes on construction. Dense bus
// networks bound the win from below (~1.08x: the search dwarfs the scratch
// fill); sparse rail networks sit at 1.14-1.3x.
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/session.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

struct ReuseRow {
  std::string name;
  double cold_ms = 0.0;       // one-to-all, fresh engine per query
  double warm_ms = 0.0;       // one-to-all, session reused
  double cold_time_ms = 0.0;  // time query, fresh engine per query
  double warm_time_ms = 0.0;  // time query, session reused
  std::size_t scratch_bytes = 0;

  double speedup() const { return cold_ms / warm_ms; }
  double time_speedup() const { return cold_time_ms / warm_time_ms; }
};

ReuseRow run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);
  const std::vector<StationId> sources =
      random_stations(net.tt, num_queries(), 20260726);
  const Time dep = 8 * 3600;

  ReuseRow row;
  row.name = gen::preset_name(preset);
  QuerySessionOptions opt;
  opt.threads = 1;

  // Repeat the stream until the measured phase is long enough to be out of
  // timer/scheduler noise. Smoke caps the stream at 3 queries but CI gates
  // warm_speedup hard, so the smoke preset repeats the stream longer — the
  // networks are tiny there and the extra reps cost well under a second.
  const int profile_queries = options().smoke ? 120 : 24;
  const int profile_reps =
      std::max(1, profile_queries / static_cast<int>(sources.size()));
  const int time_reps = std::max(1, 512 / static_cast<int>(sources.size()));

  // Warm: one session for the whole stream. One untimed pass sizes the
  // scratch to its high-water mark, then the measured stream is pure
  // steady-state — exactly what a server's worker thread sees.
  {
    QuerySession session(net.tt, net.graph, opt);
    for (StationId s : sources) session.one_to_all(s);
    Timer t;
    for (int r = 0; r < profile_reps; ++r) {
      for (StationId s : sources) session.one_to_all(s);
    }
    row.warm_ms = t.elapsed_ms() / (profile_reps * sources.size());
    session.earliest_arrival(sources.front(), dep, sources.back());
    Timer t2;
    for (int r = 0; r < time_reps; ++r) {
      for (StationId s : sources) {
        session.earliest_arrival(s, dep, sources.front());
      }
    }
    row.warm_time_ms = t2.elapsed_ms() / (time_reps * sources.size());
    row.scratch_bytes = session.scratch_bytes_reserved();
  }

  // Cold: a fresh engine per query — construction, first-touch scratch
  // allocation and teardown are all inside the measurement.
  {
    Timer t;
    for (int r = 0; r < profile_reps; ++r) {
      for (StationId s : sources) {
        ParallelSpcs engine(net.tt, net.graph, opt.spcs());
        engine.one_to_all(s);
      }
    }
    row.cold_ms = t.elapsed_ms() / (profile_reps * sources.size());
    Timer t2;
    for (int r = 0; r < time_reps; ++r) {
      for (StationId s : sources) {
        TimeQuery q(net.tt, net.graph);
        q.run(s, dep, sources.front());
      }
    }
    row.cold_time_ms = t2.elapsed_ms() / (time_reps * sources.size());
  }

  TablePrinter table({"workload", "cold [ms]", "warm [ms]", "spd-up"});
  table.add_row({"one-to-all profile", fixed(row.cold_ms, 2),
                 fixed(row.warm_ms, 2), fixed(row.speedup(), 2)});
  table.add_row({"time query", fixed(row.cold_time_ms, 3),
                 fixed(row.warm_time_ms, 3), fixed(row.time_speedup(), 2)});
  table.print();
  std::cout << "session scratch: " << format_bytes(row.scratch_bytes) << "\n";
  return row;
}

std::string to_json(const std::vector<ReuseRow>& rows) {
  std::vector<double> speedups;
  double best = 0.0;
  for (const ReuseRow& r : rows) {
    speedups.push_back(r.speedup());
    best = std::max(best, r.speedup());
  }

  JsonWriter w = bench_json_doc("bench_reuse", "table1-one-to-all warm-vs-cold");
  w.key("networks").begin_array();
  for (const ReuseRow& r : rows) {
    w.begin_object()
        .field("name", r.name)
        .field("cold_ms", r.cold_ms, 3)
        .field("warm_ms", r.warm_ms, 3)
        .field("warm_speedup", r.speedup(), 3)
        .field("cold_time_query_ms", r.cold_time_ms, 4)
        .field("warm_time_query_ms", r.warm_time_ms, 4)
        .field("warm_time_query_speedup", r.time_speedup(), 3)
        .field("session_scratch_bytes", r.scratch_bytes)
        .end_object();
  }
  w.end_array();
  w.field("warm_speedup", geomean(speedups), 3);
  w.field("warm_speedup_best", best, 3);
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);

  std::cout << "Workspace reuse: warm QuerySession vs cold per-query engine "
               "construction\n(served configuration: QuerySession "
               "defaults)\n";

  std::vector<gen::Preset> presets;
  if (options().smoke) {
    presets = {gen::Preset::kOahuLike, gen::Preset::kGermanyLike};
  } else {
    presets.assign(std::begin(gen::kAllPresets), std::end(gen::kAllPresets));
  }

  std::vector<ReuseRow> rows;
  for (gen::Preset p : presets) rows.push_back(run_network(p));

  if (options().json) emit_json(to_json(rows));
  return 0;
}
