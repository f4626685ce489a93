// Open-loop load generator: one thread sends pre-encoded binary-protocol
// requests on a fixed-rate schedule over a few non-blocking connections and
// matches responses by req_id. It never waits for a reply before sending
// the next request, so a slow server builds a queue instead of receiving
// less load; every latency is measured from the request's due time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct LoadRequest {
  pconn::Opcode op = pconn::Opcode::kPing;
  std::uint32_t a = 0, b = 0, c = 0;  // opcode args in wire order
};

struct LoadOutcome {
  Ns sent = -1;  // ns after the window start
  Ns recv = -1;  // -1: no response
  std::uint8_t status = 0xff;
  std::uint64_t epoch = 0;
  std::string payload;  // response payload without the length prefix
};

struct LoadWindow {
  OpenLoopSchedule schedule;
  Clock::time_point start;
  std::vector<LoadOutcome> out;  // one per request, in schedule order
  std::string error;             // first connection error, if any

  bool ok(std::size_t i) const {
    return out[i].recv >= 0 &&
           out[i].status == static_cast<std::uint8_t>(pconn::Status::kOk);
  }
  /// Latency from due time to response, in us; +inf when the request
  /// failed, was refused or got no answer.
  double latency_us(std::size_t i) const {
    return ok(i) ? static_cast<double>(out[i].recv - schedule.due_ns(i)) / 1e3
                 : kInf;
  }
  std::vector<double> latencies_us() const;
  /// How late each request left the generator, in us.
  std::vector<double> late_us() const;
  std::uint64_t failed() const;
  /// Wall time of the response to request i.
  Clock::time_point recv_time(std::size_t i) const {
    return start + std::chrono::nanoseconds(out[i].recv);
  }
};

/// Runs one open-loop window from the calling thread. Responses are
/// collected until every request is answered or `grace_s` seconds after
/// the last due time. With `keep_payloads` each response payload is kept
/// for the correctness check; with a tracer that is on, each answered
/// request is recorded as a root span "request" from due to receipt.
LoadWindow run_open_loop(std::uint16_t port,
                         const std::vector<LoadRequest>& reqs, double rate,
                         unsigned connections, bool keep_payloads,
                         Tracer* tracer, double grace_s = 2.0);

}  // namespace perfbench
