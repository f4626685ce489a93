#include "machine.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/simd.hpp"

extern char** environ;

namespace perfbench {
namespace {

double read_loadavg() {
  std::ifstream f("/proc/loadavg");
  double v = 0.0;
  f >> v;
  return v;
}

std::string read_cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

MachineWatch::MachineWatch() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  stamp_.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  stamp_.cpu_model = read_cpu_model();
  stamp_.avx2 = pconn::cpu_has_avx2();
  stamp_.loadavg_before = read_loadavg();
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "PCONN_", 6) == 0) stamp_.pconn_env.emplace_back(*e);
  }
  ticks0_ = read_proc_stat();
  own0_ = own_cpu_s();
  wall0_ = std::chrono::steady_clock::now();
}

MachineWatch::CpuTicks MachineWatch::read_proc_stat() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  f >> cpu;
  for (std::uint64_t& x : v) f >> x;
  CpuTicks t;
  t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  t.steal = v[7];
  t.total = t.busy + v[3] + v[4] + v[7];
  return t;
}

double MachineWatch::own_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

MachineStamp MachineWatch::finish() {
  const CpuTicks t1 = read_proc_stat();
  const double own = own_cpu_s() - own0_;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0_)
                          .count();
  const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  const double busy_s = static_cast<double>(t1.busy - ticks0_.busy) / hz;
  const std::uint64_t total = t1.total - ticks0_.total;
  stamp_.others_cores = wall > 0 ? std::max(0.0, busy_s - own) / wall : 0.0;
  stamp_.steal_frac =
      total > 0 ? static_cast<double>(t1.steal - ticks0_.steal) /
                      static_cast<double>(total)
                : 0.0;
  stamp_.loadavg_after = read_loadavg();
  return stamp_;
}

std::string MachineStamp::describe() const {
  std::ostringstream o;
  o << "nproc=" << nproc << " cpu=\"" << cpu_model << "\""
    << " avx2=" << (avx2 ? "yes" : "no") << " loadavg=" << loadavg_before
    << "->" << loadavg_after << " others_cores=" << others_cores
    << " steal=" << 100.0 * steal_frac << "%"
    << " contended=" << (contended() ? "YES" : "no")
    << " comparable=" << (comparable() ? "yes" : "NO");
  if (!pconn_env.empty()) {
    o << " env=[";
    for (std::size_t i = 0; i < pconn_env.size(); ++i) {
      o << (i ? " " : "") << pconn_env[i];
    }
    o << "]";
  }
  return o.str();
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> thread_ids() {
  std::vector<int> out;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.') out.push_back(std::atoi(e->d_name));
    }
    ::closedir(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool pin_thread(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpus.empty()) {
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (long c = 0; c < n; ++c) CPU_SET(static_cast<int>(c), &set);
  } else {
    for (int c : cpus) CPU_SET(c, &set);
  }
  return ::sched_setaffinity(tid, sizeof set, &set) == 0;
}

}  // namespace perfbench
