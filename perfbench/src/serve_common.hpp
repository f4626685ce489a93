// Pieces shared by the two serving workloads: seeded request mixes, the
// timed set-up of a served network, the byte-identity check of responses,
// and the per-layer replays (direct engine calls, protocol codec, server
// histogram) measured from outside the library.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "live/live_overlay.hpp"
#include "loadgen.hpp"
#include "server/server.hpp"

namespace perfbench {

constexpr unsigned kServerWorkers = 2;
constexpr unsigned kConnections = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 15;

/// Seeded requests: earliest-arrival queries, a `profile_share` of them
/// replaced by station-to-station profile queries.
std::vector<LoadRequest> make_requests(const pconn::Timetable& tt,
                                       std::size_t n, std::uint64_t seed,
                                       double profile_share);

/// CPU layout of the serving workloads on a machine with at least four
/// CPUs: each server thread (the two workers and the IO thread) alone on
/// one of kServerCpus, the load generator alone on kLoadCpu. Left to the
/// kernel, the four busy threads are placed differently in every process,
/// and the p50 of a whole run lands on one of two levels 40% apart.
inline const std::vector<int> kServerCpus = {0, 1, 2};
constexpr int kLoadCpu = 3;

struct ServedNetwork {
  std::unique_ptr<pconn::LiveOverlay> live;
  std::unique_ptr<pconn::QueryServer> server;
  bool pinned = false;  // the CPU layout above is in force
};

/// Builds the served configuration kSetupRepeats times from the in-memory
/// timetable — graph build and contraction (LiveOverlay), then
/// QueryServer::start — and keeps the last one, with its threads and the
/// calling (generator) thread pinned to the CPU layout above. Adds setup_s
/// (median) and, on a traced run, the set-up layer metrics.
ServedNetwork set_up_served(const pconn::Timetable& tt, Tracer& tracer,
                            Results& r);

/// The payload the server must send for request `req`, encoded through the
/// protocol encoders from a direct LiveQuerySession answer on the session's
/// pinned epoch. `degraded` is the flag of that epoch as served.
std::string expected_payload(pconn::LiveQuerySession& s, const LoadRequest& req,
                             std::uint32_t req_id, bool degraded);

/// Compares the answered requests `idx` of window `w` byte for byte with
/// direct answers on `live`'s current epoch, over `threads` checker
/// sessions. Returns the number of mismatches.
std::uint64_t check_responses(const pconn::LiveOverlay& live,
                              const LoadWindow& w,
                              const std::vector<LoadRequest>& reqs,
                              const std::vector<std::size_t>& idx,
                              bool degraded, unsigned threads = 3);

/// Server layer metrics of one timed window: accepted-latency histogram
/// deltas, the client-minus-server remainder, and ServerStats deltas.
void add_server_layer(Results& r, const std::vector<std::uint64_t>& hist0,
                      const std::vector<std::uint64_t>& hist1,
                      const pconn::ServerStats& s0,
                      const pconn::ServerStats& s1, double client_p50_us);

/// protocol.encode_ns / decode_ns: per-call cost of the response encoder
/// and decoder on the window's own answered frames.
void add_protocol_layer(Results& r, const LoadWindow& w);

/// time.* metrics: LiveQuerySession::earliest_arrival called directly on
/// the first `limit` earliest-arrival requests of `reqs`, on `live`'s
/// current epoch.
void add_time_replay(Results& r, const pconn::LiveOverlay& live,
                     const std::vector<LoadRequest>& reqs, std::size_t limit,
                     Tracer& tracer);

/// Client-side latency summary of a window: `<prefix>_p50_us`,
/// `<prefix>_p90_us` and `<prefix>_p99_us`. Returns the p50.
double add_latency_e2e(Results& r, const std::string& prefix,
                       const std::vector<double>& latencies_us);

}  // namespace perfbench
