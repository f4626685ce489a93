// Parallel driver for SPCS (paper Section 3.2).
//
// conn(S) is partitioned into p contiguous ranges; each thread runs the
// sequential self-pruning connection-setting algorithm on its range with
// fully thread-local state (labels, maxconn, queue). Threads never prune
// across ranges — exactly the paper's design — so the merged label vector
// need not be FIFO and the final profiles are obtained with the connection
// reduction.
//
// Departure from the paper: its master thread merges and reduces every
// station's profile alone after the join. Here the merge runs in a second
// fork-join over the same pool, one contiguous stripe of stations per
// thread (merge_station_profiles). Each station's profile is still built
// from the same raw labels in the same partition order, so the results are
// identical; only the serial tail of the query shrinks.
#pragma once

#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "algo/counters.hpp"
#include "algo/partition.hpp"
#include "algo/spcs.hpp"
#include "algo/workspace.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/function_ref.hpp"
#include "util/thread_pool.hpp"

namespace pconn {

struct ParallelSpcsOptions {
  unsigned threads = 1;
  PartitionStrategy partition = PartitionStrategy::kEqualConnections;
  bool self_pruning = true;
  bool stopping_criterion = true;  // station-to-station queries only
  bool prune_on_relax = false;     // see SpcsOptions::prune_on_relax
  RelaxMode relax = RelaxMode::kBatch;  // see SpcsOptions::relax
  std::uint32_t batch_min_edges = kBatchRelaxMinEdges;
};

struct OneToAllResult {
  /// Reduced profile dist(S, T, ·) for every station T.
  std::vector<Profile> profiles;
  /// Work summed over threads; time_ms is the wall clock of the whole query.
  QueryStats stats;
  /// Wall clock of the slowest / fastest thread's search (balance
  /// reporting) and of the merge + reduction that follows the join.
  double max_thread_ms = 0.0;
  double min_thread_ms = 0.0;
  double merge_ms = 0.0;
};

struct StationQueryResult {
  Profile profile;  // reduced dist(S, T, ·)
  QueryStats stats;
};

/// The merge step both one-to-all drivers (this one and overlay_spcs.hpp)
/// share: raw (unreduced) per-connection arrivals at node `vn` from the
/// per-thread label matrices of the last partitioned run over `conns`, in
/// partition order.
template <typename Queue>
void collect_raw_profile_at(const std::vector<SpcsThreadStateT<Queue>>& states,
                            const std::vector<std::uint32_t>& boundaries,
                            std::span<const Connection> conns, NodeId vn,
                            Profile& raw) {
  raw.clear();
  raw.reserve(conns.size());
  for (std::size_t th = 0; th < states.size(); ++th) {
    const std::uint32_t lo = boundaries[th], hi = boundaries[th + 1];
    for (std::uint32_t li = 0; li + lo < hi; ++li) {
      raw.push_back({conns[lo + li].dep, states[th].arrival(vn, li)});
    }
  }
}

/// Merge + connection reduction of every station's profile after the last
/// partitioned run from `s`: one contiguous stripe of stations per pool
/// thread, each collecting through its own buffer raw[t] (raw holds one
/// per pool thread; capacities persist, so a warm merge is allocation-free).
/// `out` is resized to the station count.
template <typename Queue>
void merge_station_profiles(ThreadPool& pool,
                            const std::vector<SpcsThreadStateT<Queue>>& states,
                            const std::vector<std::uint32_t>& boundaries,
                            const Timetable& tt, const TdGraph& g, StationId s,
                            std::vector<Profile>& raw,
                            std::vector<Profile>& out) {
  const std::size_t n = tt.num_stations();
  const std::size_t p = pool.num_threads();
  assert(raw.size() >= p);
  // resize keeps each station's Profile object — and its capacity — alive
  // across queries, so a warm session's merge is allocation-free.
  out.resize(n);
  pool.run([&](std::size_t t) {
    const auto lo = static_cast<StationId>(n * t / p);
    const auto hi = static_cast<StationId>(n * (t + 1) / p);
    for (StationId v = lo; v < hi; ++v) {
      collect_raw_profile_at(states, boundaries, tt.outgoing(s),
                             g.station_node(v), raw[t]);
      reduce_profile_into(raw[t], tt.period(), out[v]);
    }
  });
}

/// Template over the queue policy of the per-thread SPCS states
/// (queue_policy.hpp). Definitions live in parallel_spcs.cpp, which
/// explicitly instantiates the two shipped policies; `ParallelSpcs` is
/// the served bucket-queue configuration (`ParallelSpcsT<SpcsBinaryQueue>`
/// is the paper's).
///
/// Lifecycle: the driver owns one QueryWorkspace per pool thread; every
/// thread state's scratch (labels, queue, bucket window) lives in its
/// thread's arena and is bound to the pool thread for the driver's whole
/// lifetime — states are never respawned per query. The `_into` query
/// variants additionally reuse caller-owned result buffers, so a warm
/// driver answers queries without any heap allocation (QuerySession wraps
/// them; see docs/architecture.md).
template <typename Queue = SpcsBucketQueue>
class ParallelSpcsT {
 public:
  ParallelSpcsT(const Timetable& tt, const TdGraph& g,
                ParallelSpcsOptions opt);
  ~ParallelSpcsT();

  /// One-to-all profile query from S, including merge and reduction.
  OneToAllResult one_to_all(StationId s);
  /// Allocation-free variant: reuses `out`'s profile buffers.
  void one_to_all_into(StationId s, OneToAllResult& out);

  /// Station-to-station profile query with the per-thread stopping
  /// criterion. (Distance-table pruning lives in s2s::S2sQueryEngine, which
  /// drives the same thread states with a settle hook.)
  StationQueryResult station_to_station(StationId s, StationId t);
  /// Allocation-free variant: reuses `out`'s profile buffer.
  void station_to_station_into(StationId s, StationId t,
                               StationQueryResult& out);

  const ParallelSpcsOptions& options() const { return opt_; }
  const Timetable& timetable() const { return tt_; }
  const TdGraph& graph() const { return g_; }

  /// Access for the s2s engine: runs fn(thread, lo, hi) on every thread in
  /// parallel with the conn(S) partition boundaries precomputed for `s`.
  /// Non-owning: `fn` only has to outlive the call (fork-join).
  using RangeFn =
      FunctionRef<void(std::size_t thread, std::uint32_t lo, std::uint32_t hi)>;
  void run_partitioned(StationId s, RangeFn fn);

  SpcsThreadStateT<Queue>& thread_state(std::size_t i) { return states_[i]; }
  const std::vector<std::uint32_t>& last_boundaries() const {
    return boundaries_;
  }

  /// Assembles the reduced profile of station `t` from the per-thread
  /// labels of the last run from source `s` (shared by one_to_all and the
  /// s2s engines).
  Profile assemble_profile(StationId s, StationId t) const;
  /// Allocation-free variant: reuses `out` and an internal raw buffer
  /// (master thread only).
  void assemble_profile_into(StationId s, StationId t, Profile& out);

  /// Reduced profile dist(S, v, ·) at ANY graph node of the last full run
  /// (a full flat run settles route nodes too). The overlay driver
  /// (algo/overlay_spcs.hpp) offers the same surface after its down-sweep;
  /// tests/overlay_spcs_test.cpp diffs the two at every node.
  Profile node_profile(StationId s, NodeId v) const;
  void node_profile_into(StationId s, NodeId v, Profile& out);

  /// Total arena footprint of the per-thread workspaces.
  std::size_t scratch_bytes_reserved() const;

 private:
  const Timetable& tt_;
  const TdGraph& g_;
  ParallelSpcsOptions opt_;
  ThreadPool pool_;
  // One workspace per pool thread, allocated before the states so the
  // states' containers can bind to the arenas; never touched concurrently
  // by two threads (each state only grows its own workspace).
  std::vector<std::unique_ptr<QueryWorkspace>> workspaces_;
  std::vector<SpcsThreadStateT<Queue>> states_;
  std::vector<std::uint32_t> boundaries_;
  std::vector<double> thread_ms_;     // per-query scratch (one_to_all)
  std::vector<Profile> raw_scratch_;  // merge scratch, one per pool thread
};

using ParallelSpcs = ParallelSpcsT<>;

}  // namespace pconn
