#include "serve_common.hpp"

#include <algorithm>
#include <iterator>
#include <thread>

#include "algo/contraction.hpp"
#include "live/live_session.hpp"
#include "machine.hpp"
#include "util/rng.hpp"

namespace perfbench {

using pconn::LiveOverlay;
using pconn::LiveQuerySession;
using pconn::Opcode;
using pconn::QueryServer;
using pconn::ResponseHeader;
using pconn::Status;
using pconn::Timetable;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

std::vector<LoadRequest> make_requests(const Timetable& tt, std::size_t n,
                                       std::uint64_t seed,
                                       double profile_share) {
  pconn::Rng rng(seed);
  const auto stations = static_cast<std::uint64_t>(tt.num_stations());
  const auto every = profile_share > 0
                         ? static_cast<std::uint64_t>(1.0 / profile_share + 0.5)
                         : 0;
  std::vector<LoadRequest> out(n);
  for (LoadRequest& q : out) {
    const auto s = static_cast<std::uint32_t>(rng.next_below(stations));
    const auto t = static_cast<std::uint32_t>(rng.next_below(stations));
    const auto dep = static_cast<std::uint32_t>(rng.next_below(tt.period()));
    if (every != 0 && rng.next_below(every) == 0) {
      q = {Opcode::kProfile, s, t, 0};
    } else {
      q = {Opcode::kEarliestArrival, s, dep, t};
    }
  }
  return out;
}

ServedNetwork set_up_served(const Timetable& tt, Tracer& tracer, Results& r) {
  ServedNetwork net;
  std::vector<double> setup_s, start_ms;
  std::vector<int> server_tids;
  for (int k = 0; k < kSetupRepeats; ++k) {
    // The previous set-up is torn down untimed, server before overlay.
    net.server.reset();
    net.live.reset();
    Timetable copy = tt;    // the copy is the generator's, not set-up
    const std::vector<int> tids_before = thread_ids();
    const std::uint64_t op = tracer.next_op();
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope setup(tracer, "setup", op);
      {
        SpanScope s(tracer, "setup.live_overlay", op, setup.id());
        net.live = std::make_unique<LiveOverlay>(std::move(copy));
      }
      const Clock::time_point s0 = Clock::now();
      SpanScope s(tracer, "setup.server_start", op, setup.id());
      pconn::ServerOptions opt;
      opt.workers = kServerWorkers;
      net.server = std::make_unique<QueryServer>(*net.live, opt);
      net.server->start();
      start_ms.push_back(ms_since(s0));
    }
    setup_s.push_back(ms_since(t0) / 1e3);
    const std::vector<int> tids_after = thread_ids();
    server_tids.clear();
    std::set_difference(tids_after.begin(), tids_after.end(), tids_before.begin(),
                        tids_before.end(), std::back_inserter(server_tids));
  }
  r.add_e2e("setup_s", median(setup_s), "s",
            "median of " + std::to_string(kSetupRepeats) +
                " set-ups: graph build + contraction + QueryServer::start");

  if (std::thread::hardware_concurrency() >= 4 &&
      server_tids.size() <= kServerCpus.size()) {
    net.pinned = pin_thread(0, {kLoadCpu});
    for (std::size_t i = 0; i < server_tids.size(); ++i) {
      net.pinned = pin_thread(server_tids[i], {kServerCpus[i]}) && net.pinned;
    }
  }
  r.line(net.pinned ? "cpu layout: " + std::to_string(server_tids.size()) +
                          " server threads on CPUs 0-2, generator on CPU 3"
                    : "cpu layout: threads not pinned");
  if (!tracer.on()) return net;

  // The layers inside LiveOverlay's constructor, timed by calling the same
  // public functions directly.
  std::vector<double> graph_ms, contract_ms;
  for (int k = 0; k < 3; ++k) {
    const std::uint64_t op = tracer.next_op();
    Clock::time_point t0 = Clock::now();
    pconn::TdGraph g = [&] {
      SpanScope s(tracer, "setup.graph_build", op);
      return pconn::TdGraph::build(tt);
    }();
    graph_ms.push_back(ms_since(t0));
    pconn::OverlayContractionOptions copt;
    copt.witness_settles = 0;  // as LiveOverlay contracts
    t0 = Clock::now();
    {
      SpanScope s(tracer, "setup.contraction", op);
      (void)pconn::contract_graph(tt, g, copt);
    }
    contract_ms.push_back(ms_since(t0));
  }
  const auto snap = net.live->snapshot();
  r.add_layer("graph.build_ms", median(graph_ms), "ms", "TdGraph::build, median of 3");
  r.add_layer("contraction.build_ms", median(contract_ms), "ms",
              "contract_graph (witness-free), median of 3");
  r.add_layer("server.start_ms", median(start_ms), "ms",
              "QueryServer construction + start, median of set-ups");
  r.add_layer("graph.mib", static_cast<double>(snap->graph->memory_bytes()) / (1 << 20),
              "MiB", "TdGraph::memory_bytes");
  r.add_layer("overlay.mib",
              snap->overlay ? static_cast<double>(snap->overlay->memory_bytes()) / (1 << 20)
                            : 0.0,
              "MiB", "OverlayGraph::memory_bytes");
  return net;
}

std::string expected_payload(LiveQuerySession& s, const LoadRequest& req,
                             std::uint32_t req_id, bool degraded) {
  ResponseHeader h;
  h.status = Status::kOk;
  h.opcode = req.op;
  h.req_id = req_id;
  h.degraded = degraded;
  std::string frame;
  switch (req.op) {
    case Opcode::kEarliestArrival: {
      const pconn::Time arr = s.earliest_arrival(req.a, req.b, req.c);
      h.epoch = s.epoch();
      frame = pconn::encode_ea_response(h, arr);
      break;
    }
    case Opcode::kProfile: {
      const auto& res = s.station_to_station(req.a, req.b);
      h.epoch = s.epoch();
      frame = pconn::encode_profile_response(h, res.profile);
      break;
    }
    default:
      h.epoch = s.epoch();
      frame = pconn::encode_response_header(h);
      break;
  }
  return frame.substr(pconn::kFrameHeaderBytes);
}

std::uint64_t check_responses(const LiveOverlay& live, const LoadWindow& w,
                              const std::vector<LoadRequest>& reqs,
                              const std::vector<std::size_t>& idx,
                              bool degraded, unsigned threads) {
  std::vector<std::uint64_t> bad(threads, 0);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LiveQuerySession s(live);
      for (std::size_t k = t; k < idx.size(); k += threads) {
        const std::size_t i = idx[k];
        if (!w.ok(i)) continue;  // already counted as failed
        const std::string want = expected_payload(
            s, reqs[i], static_cast<std::uint32_t>(i + 1), degraded);
        if (w.out[i].payload != want) ++bad[t];
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::uint64_t total = 0;
  for (std::uint64_t b : bad) total += b;
  return total;
}

void add_server_layer(Results& r, const std::vector<std::uint64_t>& hist0,
                      const std::vector<std::uint64_t>& hist1,
                      const pconn::ServerStats& s0, const pconn::ServerStats& s1,
                      double client_p50_us) {
  const int shift = QueryServer::kLatencyBucketShiftNs;
  const Percentile p50 = hist_delta_percentile(hist0, hist1, shift, 0.5);
  const Percentile p99 = hist_delta_percentile(hist0, hist1, shift, 0.99);
  const std::string res = "bucket upper edge, resolution " +
                          std::to_string((1 << shift) / 1000.0).substr(0, 4) +
                          " us";
  r.add_layer("server.accepted_p50_us", p50.value, "us", pct_note(p50) + ", " + res);
  r.add_layer("server.accepted_p99_us", p99.value, "us", pct_note(p99) + ", " + res);
  r.add_layer("server.outside_p50_us", client_p50_us - p50.value, "us",
              "client p50 minus server.accepted_p50_us (socket, epoll, parse, "
              "flush, decode)");
  r.add_layer("server.shed", static_cast<double>(s1.requests_shed - s0.requests_shed),
              "count", "ServerStats delta over the window");
  r.add_layer("server.deadline_expired",
              static_cast<double>(s1.requests_deadline - s0.requests_deadline),
              "count", "ServerStats delta over the window");
  r.add_layer("server.internal",
              static_cast<double>(s1.requests_internal - s0.requests_internal),
              "count", "ServerStats delta over the window");
  r.line("reconstruction: server.accepted_p50_us + server.outside_p50_us = " +
         std::to_string(p50.value + (client_p50_us - p50.value)) +
         " us = client p50 (accepted p50 is a bucket upper edge, exact to "
         "one bucket)");
}

void add_protocol_layer(Results& r, const LoadWindow& w) {
  constexpr std::size_t kFrames = 20'000;
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < w.out.size() && idx.size() < kFrames; ++i) {
    if (w.ok(i) && !w.out[i].payload.empty()) idx.push_back(i);
  }
  if (idx.empty()) return;
  std::vector<pconn::DecodedResponse> decoded;
  decoded.reserve(idx.size());
  Clock::time_point t0 = Clock::now();
  for (std::size_t i : idx) {
    const std::string& p = w.out[i].payload;
    // Answered frames were decodable when received; a nullopt here would be
    // a codec fault and is left out of the encode timing.
    if (auto d = pconn::decode_response(p.data(), p.size())) decoded.push_back(std::move(*d));
  }
  const double decode_ns = static_cast<double>(to_ns(Clock::now() - t0)) /
                           static_cast<double>(idx.size());
  if (decoded.empty()) return;
  std::size_t bytes = 0;
  t0 = Clock::now();
  for (const pconn::DecodedResponse& d : decoded) {
    const std::string f =
        d.header.opcode == Opcode::kProfile
            ? pconn::encode_profile_response(d.header, d.profile)
            : pconn::encode_ea_response(d.header, d.arrival);
    bytes += f.size();
  }
  const double encode_ns = static_cast<double>(to_ns(Clock::now() - t0)) /
                           static_cast<double>(decoded.size());
  const std::string note = "mean per call over " + std::to_string(decoded.size()) +
                           " of the window's own response frames (" +
                           std::to_string(bytes / decoded.size()) + " B avg)";
  r.add_layer("protocol.encode_ns", encode_ns, "ns", note);
  r.add_layer("protocol.decode_ns", decode_ns, "ns", note);
}

void add_time_replay(Results& r, const LiveOverlay& live,
                     const std::vector<LoadRequest>& reqs, std::size_t limit,
                     Tracer& tracer) {
  LiveQuerySession s(live);
  std::vector<double> us;
  std::uint64_t settled = 0, relaxed = 0;
  for (const LoadRequest& q : reqs) {
    if (us.size() >= limit) break;
    if (q.op != Opcode::kEarliestArrival) continue;
    const std::uint64_t op = tracer.next_op();
    const Clock::time_point t0 = Clock::now();
    (void)s.earliest_arrival(q.a, q.b, q.c);
    const Clock::time_point t1 = Clock::now();
    tracer.record("replay.earliest_arrival", op, 0, t0, t1);
    us.push_back(static_cast<double>(to_ns(t1 - t0)) / 1e3);
    const pconn::QueryStats& st =
        s.pinned().overlay != nullptr
            ? s.session().overlay_time_engine(*s.pinned().overlay).stats()
            : s.session().time_engine().stats();
    settled += st.settled;
    relaxed += st.relaxed;
  }
  const Percentile p50 = percentile(us, 0.5);
  const Percentile p99 = percentile(us, 0.99);
  r.add_layer("time.ea_p50_us", p50.value, "us", "direct LiveQuerySession, " + pct_note(p50));
  r.add_layer("time.ea_p99_us", p99.supported() ? p99.value : 0.0, "us",
              "direct LiveQuerySession, " + pct_note(p99));
  r.add_layer("time.ea_settled", static_cast<double>(settled), "count",
              "QueryStats sum over " + std::to_string(us.size()) + " queries");
  r.add_layer("time.ea_relaxed", static_cast<double>(relaxed), "count",
              "QueryStats sum over " + std::to_string(us.size()) + " queries");
}

double add_latency_e2e(Results& r, const std::string& prefix,
                       const std::vector<double>& latencies_us) {
  const Percentile p50 = percentile(latencies_us, 0.5);
  r.add_e2e(prefix + "_p50_us", p50.value, "us", pct_note(p50));
  add_tail_e2e(r, prefix + "_p90_us", percentile(latencies_us, 0.9), "us");
  add_tail_e2e(r, prefix + "_p95_us", percentile(latencies_us, 0.95), "us");
  add_tail_e2e(r, prefix + "_p99_us", percentile(latencies_us, 0.99), "us");
  return p50.value;
}

}  // namespace perfbench
