// perfbench: the repository's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload serve_ea|serve_live|profile_batch --seed N
//             --seconds S --trace 0|1 [--trace-file PATH]
//             [--ea-qps R]
//
// Prints a human-readable report, then one line
//   PERFBENCH_RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding every metric measured. Exits 1 when any answer was wrong or a
// check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "machine.hpp"

namespace perfbench {

std::string pct_note(const Percentile& p) {
  std::string s = "n=" + std::to_string(p.n);
  if (p.n > 0) s += ", " + std::to_string(p.beyond) + " beyond";
  return s;
}

void add_tail_e2e(Results& r, const std::string& name, const Percentile& p,
                  const std::string& unit) {
  if (p.supported()) {
    r.add_e2e(name, p.value, unit, pct_note(p));
  } else {
    r.line(name + " not reported: fewer than " + std::to_string(kMinBeyond) +
           " samples beyond it (" + pct_note(p) + ")");
  }
}

namespace {

/// Per span name, count, total and self time as report lines, and
/// `trace.spans` as a per-layer count.
void add_self_times(Results& r, const Tracer& tracer) {
  const std::vector<Span> spans = tracer.spans();
  r.add_layer("trace.spans", static_cast<double>(spans.size()), "count",
              "spans recorded by the traced run");
  for (const auto& [name, t] : self_times(spans)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "span %-28s count %8llu  total %10.3f ms  self %10.3f ms",
                  name.c_str(), static_cast<unsigned long long>(t.count), t.total / 1e6,
                  t.self / 1e6);
    r.line(buf);
  }
}

/// Workload-neutral keys of the result line: BENCHMARK.json gates every
/// end-to-end metric on every workload, so each workload maps its own median
/// latency onto p50_us and the steady measure of its slow end onto
/// tail_us (on serve_live, the median of the profile reads, which are the
/// slowest tenth of the mix).
struct Alias {
  const char* workload;
  const char* key;
  const char* source;
  double scale;
};
constexpr Alias kAliases[] = {
    {"serve_ea", "p50_us", "ea_p50_us", 1.0},
    {"serve_ea", "tail_us", "ea_p90_us", 1.0},
    {"serve_live", "p50_us", "read_p50_us", 1.0},
    {"serve_live", "tail_us", "read_profile_p50_us", 1.0},
    {"profile_batch", "p50_us", "o2a_p50_ms", 1000.0},
    {"profile_batch", "tail_us", "o2a_p90_ms", 1000.0},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e300" : "-1e300";
  std::ostringstream o;
  o.precision(10);
  o << v;
  return o.str();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve_ea|serve_live|"
               "profile_batch --seed N --seconds S --trace 0|1 [--trace-file P]"
               " [--ea-qps R]\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig c;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      c.workload = v;
      continue;
    }
    if (a == "--trace-file") {
      c.trace_file = v;
      continue;
    }
    const double x = std::strtod(v, &end);
    if (end == v || *end != '\0' || !(x >= 0)) usage(("bad value for " + a).c_str());
    if (a == "--seed") c.seed = static_cast<std::uint64_t>(x);
    else if (a == "--seconds") c.seconds = x;
    else if (a == "--trace") c.trace = x != 0;
    else if (a == "--ea-qps") c.ea_qps = x;
    else usage(("unknown option " + a).c_str());
  }
  if (c.workload != "serve_ea" && c.workload != "serve_live" &&
      c.workload != "profile_batch") {
    usage("unknown workload");
  }
  if (c.seconds <= 0 || c.ea_qps <= 0) {
    usage("rates and --seconds must be positive");
  }
  return c;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::cout << title << ":\n";
  for (const Metric& m : ms) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "  %-32s %14.4f %-6s", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << buf << "  " << m.note << "\n";
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig cfg = parse(argc, argv);
  MachineWatch watch;
  Tracer tracer(cfg.trace);

  Results r;
  try {
    if (cfg.workload == "serve_ea") r = run_serve_ea(cfg, tracer);
    else if (cfg.workload == "serve_live") r = run_serve_live(cfg, tracer);
    else r = run_profile_batch(cfg, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  const MachineStamp stamp = watch.finish();

  r.add_e2e("fail_frac",
            r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0,
            "ratio",
            std::to_string(r.failed) + " failed, refused, expired or mismatched of " +
                std::to_string(r.attempted) + " attempted");
  if (cfg.trace) {
    add_self_times(r, tracer);
    if (!cfg.trace_file.empty()) {
      if (tracer.write_jsonl(cfg.trace_file)) {
        r.line("spans written to " + cfg.trace_file);
      } else {
        r.line("could not write spans to " + cfg.trace_file);
      }
    }
  }
  for (const Alias& a : kAliases) {
    if (cfg.workload != a.workload) continue;
    for (const Metric& m : r.e2e) {
      if (m.name == a.source) {
        r.e2e.push_back({a.key, m.value * a.scale, "us", "= " + m.name});
        break;
      }
    }
  }
  const bool correct = r.checks_ok && r.mismatches == 0;

  std::cout << "perfbench workload=" << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << (cfg.trace ? 1 : 0) << "\n"
            << "machine: " << stamp.describe() << "\n";
  if (stamp.contended()) {
    std::cout << "WARNING: contended run (other load during the run); do not "
                 "pool it with uncontended runs\n";
  }
  if (!stamp.comparable()) {
    std::cout << "WARNING: PCONN_* variables are set; this run measures a "
                 "different configuration and is not comparable\n";
  }
  for (const std::string& l : r.lines) std::cout << "  " << l << "\n";
  print_metrics("end-to-end", r.e2e);
  if (cfg.trace) print_metrics("per-layer", r.layer);
  std::cout << "correct: " << (correct ? "yes" : "NO") << "\n";

  std::cout << "PERFBENCH_RESULT {\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto* ms : {&r.e2e, &r.layer}) {
    for (const Metric& m : *ms) {
      std::cout << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":"
                << json_number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
      first = false;
    }
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
