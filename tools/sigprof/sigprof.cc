// A statistical CPU profiler loaded with LD_PRELOAD (x86-64 Linux).
//
//   LD_PRELOAD=build/tools/sigprof/libsigprof.so ./build/perfbench/perfbench_sim ...
//   python3 tools/sigprof/report.py sigprof.<pid>.out
//
// An ITIMER_PROF timer interrupts the process every millisecond of CPU time
// it uses (the kernel tick caps the delivered rate: about 250 Hz at
// CONFIG_HZ=250). The handler records the interrupted program counter in a
// fixed buffer and does nothing else. When the process exits normally, every
// sample is written to sigprof.<pid>.out in the working directory, one line
// per distinct location with its sample count:
//
//   exe <TAB> <executable path> <TAB> <hex address for addr2line> <TAB> count
//   lib <TAB> <shared object path> <TAB> <dladdr symbol or ??> <TAB> count
//
// PCs in the main executable are left for report.py to resolve with
// `addr2line -i`, which also names inlined frames; PCs in shared libraries
// (libc's malloc, libstdc++) are named here with dladdr. A process that ends
// in _exit, exec or a fatal signal writes nothing.

#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <sys/auxv.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

constexpr size_t kMaxSamples = size_t{1} << 20;  // ~70 min of CPU time at 250 Hz
constexpr long kIntervalUs = 1000;

uintptr_t g_samples[kMaxSamples];
std::atomic<size_t> g_count{0};

void OnProf(int, siginfo_t*, void* context) {
  const size_t index = g_count.fetch_add(1, std::memory_order_relaxed);
  if (index < kMaxSamples) {
    const auto* uc = static_cast<const ucontext_t*>(context);
    g_samples[index] = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  }
}

void SetTimer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

// Load bias of the main executable: the first object dl_iterate_phdr visits.
uintptr_t MainBias() {
  uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, size_t, void* out) {
        *static_cast<uintptr_t*>(out) = info->dlpi_addr;
        return 1;
      },
      &bias);
  return bias;
}

__attribute__((constructor)) void Start() {
  struct sigaction action {};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  SetTimer(kIntervalUs);
}

__attribute__((destructor)) void Stop() {
  SetTimer(0);
  signal(SIGPROF, SIG_IGN);
  const size_t count = std::min(g_count.load(), kMaxSamples);
  std::vector<uintptr_t> pcs(g_samples, g_samples + count);
  std::sort(pcs.begin(), pcs.end());

  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  exe[exe_len > 0 ? exe_len : 0] = '\0';
  const uintptr_t main_bias = MainBias();
  Dl_info main_info{};
  const bool have_main = dladdr(reinterpret_cast<void*>(getauxval(AT_ENTRY)), &main_info) != 0;

  char path[64];
  std::snprintf(path, sizeof(path), "sigprof.%d.out", static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    return;
  }
  for (size_t i = 0; i < pcs.size();) {
    size_t j = i;
    while (j < pcs.size() && pcs[j] == pcs[i]) {
      ++j;
    }
    Dl_info info{};
    const bool found = dladdr(reinterpret_cast<void*>(pcs[i]), &info) != 0;
    if (found && have_main && info.dli_fbase == main_info.dli_fbase) {
      std::fprintf(out, "exe\t%s\t%#lx\t%zu\n", exe,
                   static_cast<unsigned long>(pcs[i] - main_bias), j - i);
    } else {
      std::fprintf(out, "lib\t%s\t%s\t%zu\n", found && info.dli_fname ? info.dli_fname : "??",
                   found && info.dli_sname ? info.dli_sname : "??", j - i);
    }
    i = j;
  }
  std::fclose(out);
  std::fprintf(stderr, "sigprof: %zu samples -> %s\n", count, path);
}

}  // namespace
