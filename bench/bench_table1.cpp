// Reproduces Table 1: one-to-all profile queries with the parallel
// self-pruning connection-setting algorithm (CS) on p = 1, 2, 4, 8 cores,
// compared against the label-correcting baseline (LC).
//
// Reported per network and row: settled connections (summed over threads;
// for LC the sum of label sizes taken from the queue, as in the paper),
// average query time, speed-up over the single-core CS run, queue
// operations (backing the paper's Section 5.1 observation that LC needs
// fewer queue operations yet loses overall), and the CS query's phases:
// the slowest and fastest thread's search and the merge after the join.
#include <iostream>

#include "algo/lc_profile.hpp"
#include "algo/session.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

template <typename Queue>
void run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);

  const int queries = num_queries();
  const int lc_queries = std::max(2, queries / 5);  // LC is far slower
  std::vector<StationId> sources = random_stations(net.tt, queries, 12345);

  TablePrinter table({"algo", "p", "settled conns", "time [ms]", "spd-up",
                      "queue ops", "max/min thr [ms]", "merge [ms]"});

  double base_ms = 0.0;
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    // One warm QuerySession per core count, as a server would hold it:
    // repeated-query throughput, not cold-start latency. The untimed
    // warm-up query sizes the workspaces.
    QuerySessionOptions opt;
    opt.threads = p;
    QuerySessionT<Queue> session(net.tt, net.graph, opt);
    session.one_to_all(sources.front());
    QueryStats total;
    double max_thr = 0.0, min_thr = 0.0, merge = 0.0;
    Timer timer;
    for (StationId s : sources) {
      const OneToAllResult& r = session.one_to_all(s);
      total += r.stats;
      max_thr += r.max_thread_ms;
      min_thr += r.min_thread_ms;
      merge += r.merge_ms;
    }
    double avg_ms = timer.elapsed_ms() / queries;
    if (p == 1) base_ms = avg_ms;
    table.add_row({"CS", std::to_string(p),
                   format_count(total.settled / queries), fixed(avg_ms, 1),
                   fixed(base_ms / avg_ms, 1),
                   format_count(total.queue_ops() / queries),
                   fixed(max_thr / queries, 1) + "/" +
                       fixed(min_thr / queries, 1),
                   fixed(merge / queries, 2)});
  }

  {
    LcProfileQuery lc(net.tt, net.graph);
    QueryStats total;
    Timer timer;
    for (int i = 0; i < lc_queries; ++i) {
      lc.run(sources[i]);
      total += lc.stats();
    }
    double avg_ms = timer.elapsed_ms() / lc_queries;
    table.add_row({"LC", "1", format_count(total.label_points / lc_queries),
                   fixed(avg_ms, 1), fixed(base_ms / avg_ms, 1),
                   format_count(total.queue_ops() / lc_queries), "-", "-"});
  }

  table.print();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);
  std::cout << "Table 1 reproduction: one-to-all profile queries, CS (p = 1, "
               "2, 4, 8) vs LC\n"
            << "(settled conns per query; LC row reports summed label sizes "
               "as in the paper; CS queue policy: "
            << queue_kind_name(options().queue) << ")\n";
  const auto presets =
      options().smoke
          ? std::vector<gen::Preset>{gen::Preset::kOahuLike,
                                     gen::Preset::kGermanyLike}
          : std::vector<gen::Preset>(std::begin(gen::kAllPresets),
                                     std::end(gen::kAllPresets));
  for (gen::Preset p : presets) {
    with_spcs_queue(options().queue, [&](auto tag) {
      run_network<typename decltype(tag)::type>(p);
    });
  }
  return 0;
}
