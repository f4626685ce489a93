// The machine stamp every result carries: cores, CPU model, AVX2, load
// before and after, CPU time taken by other processes during the run, and
// every PCONN_* variable in the environment (those change the library's
// behaviour, so a run with any of them set measures a different program).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MachineStamp {
  unsigned nproc = 0;
  std::string cpu_model;
  bool avx2 = false;
  double loadavg_before = 0.0;  // 1-minute load average
  double loadavg_after = 0.0;
  /// Cores' worth of CPU time used by everything except this process
  /// during the run (from /proc/stat), and the share of time stolen by
  /// the hypervisor.
  double others_cores = 0.0;
  double steal_frac = 0.0;
  std::vector<std::string> pconn_env;  // "NAME=value" for each PCONN_*

  /// Other load above half a core, or more than 5% stolen time.
  bool contended() const { return others_cores > 0.5 || steal_frac > 0.05; }
  bool comparable() const { return pconn_env.empty(); }
  std::string describe() const;
};

/// Takes the "before" half of the stamp on construction; finish() takes
/// the "after" half.
class MachineWatch {
 public:
  MachineWatch();
  MachineStamp finish();

 private:
  struct CpuTicks {
    std::uint64_t busy = 0;
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  static CpuTicks read_proc_stat();
  static double own_cpu_s();

  MachineStamp stamp_;
  CpuTicks ticks0_;
  double own0_ = 0.0;
  std::chrono::steady_clock::time_point wall0_;
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Thread ids of this process, ascending.
std::vector<int> thread_ids();
/// Restricts thread `tid` (0: the calling thread) to `cpus`; an empty list
/// means every online CPU. False when the kernel refuses.
bool pin_thread(int tid, const std::vector<int>& cpus);

}  // namespace perfbench
