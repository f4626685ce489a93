// Shared types of the three workloads: the run configuration parsed from
// the command line, and the metric sink each workload fills in. main.cpp
// prints the sink as a human report plus one machine-readable line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;        // span output of the traced run
  double ea_qps = 20'000.0;  // serve_ea nominal open-loop rate
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count and how the value was taken
};

struct Results {
  std::vector<Metric> e2e;    // end-to-end metrics, every run
  std::vector<Metric> layer;  // per-layer metrics, traced runs
  std::vector<std::string> lines;  // free-form report lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // failed, refused, expired or mismatched
  std::uint64_t mismatches = 0;  // wrong answers (also counted in failed)
  bool checks_ok = true;         // every correctness check passed

  void add_e2e(std::string name, double v, std::string unit,
               std::string note = {}) {
    e2e.push_back({std::move(name), v, std::move(unit), std::move(note)});
  }
  void add_layer(std::string name, double v, std::string unit,
                 std::string note = {}) {
    layer.push_back({std::move(name), v, std::move(unit), std::move(note)});
  }
  void line(std::string s) { lines.push_back(std::move(s)); }
  /// Records a failed correctness check (the run then exits nonzero).
  void fail_check(const std::string& what) {
    checks_ok = false;
    lines.push_back("CHECK FAILED: " + what);
  }
};

/// "n=1234" or "n=1234, 12 beyond" for a percentile's sample note.
std::string pct_note(const Percentile& p);
/// Adds a tail percentile as an end-to-end metric when the ten-beyond rule
/// supports it, and a report line saying why otherwise.
void add_tail_e2e(Results& r, const std::string& name, const Percentile& p,
                  const std::string& unit);

Results run_serve_ea(const RunConfig& cfg, Tracer& tracer);
Results run_serve_live(const RunConfig& cfg, Tracer& tracer);
Results run_profile_batch(const RunConfig& cfg, Tracer& tracer);


}  // namespace perfbench
