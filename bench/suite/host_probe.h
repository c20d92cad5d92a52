#ifndef ELEPHANT_BENCH_SUITE_HOST_PROBE_H_
#define ELEPHANT_BENCH_SUITE_HOST_PROBE_H_

// Host-speed probe for the benchmark driver (README.md, "Host speed").
//
// On a shared host the speed of a core drifts by a fifth or more within
// minutes, as other tenants come and go. The driver therefore takes a
// probe sample between every two timed calls and reports each call's time
// in reference seconds: its wall time times the sample's reference time
// (ProbeRoundRefS) over the mean of the two samples around it.
//
// The probe is a process of its own, forked before the driver touches any
// program code and never calling into it, so nothing the program does to
// its heap or its threads reaches the probe. A sample runs a fixed kernel
// on as many CPUs as the timed calls use, starting with the one the
// driver last ran on. The driver and its worker threads are idle while
// they wait for the answer, so the probe and the program never compete
// for a core.
//
// Other tenants slow some kinds of work more than others: an arithmetic
// loop hardly at all, a cache-resident simulation a lot. So the kernel
// does the kinds of work the workload's calls do (ProbeWork), and slows
// when they slow.

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

namespace elephant::bench {

/// Kinds of work a probe round does; a sample names any mix of them.
enum ProbeWork : uint32_t {
  /// An event heap and an ordered map of a few hundred KB, driven by a
  /// fixed-seed generator: the simulator's and the engines' own work.
  kProbeHeap = 1,
  /// Dependent loads along a random cycle through 64 MB: lookups in
  /// structures larger than the caches.
  kProbeChase = 2,
  /// One read per cache line over 32 MB of a 64 MB array: a column scan.
  kProbeScan = 4,
};

/// The time one kind of work takes per round on the host the benchmark
/// was tuned on (an Intel Xeon VM, 4 vCPUs, g++ 12, Release), when that
/// host was quiet. It only sets the scale of reference seconds; the
/// bounds are shares.
inline constexpr double kProbePartRefS = 0.003;

/// The reference time of one round of `work`.
inline double ProbeRoundRefS(uint32_t work) {
  return kProbePartRefS * std::popcount(work);
}

class HostProbe {
 public:
  HostProbe() = default;
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;
  ~HostProbe() { Stop(); }

  /// Forks the probe process. Call while the driver is single-threaded
  /// and before it runs program code. Returns false when it cannot fork.
  bool Start() {
    int to_probe[2];
    int from_probe[2];
    if (pipe2(to_probe, O_CLOEXEC) != 0) return false;
    if (pipe2(from_probe, O_CLOEXEC) != 0) {
      close(to_probe[0]);
      close(to_probe[1]);
      return false;
    }
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // The probe ends with the driver, however the driver ends.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(0);
      close(to_probe[1]);
      close(from_probe[0]);
      Serve(to_probe[0], from_probe[1]);
      _exit(0);
    }
    close(to_probe[0]);
    close(from_probe[1]);
    request_ = to_probe[1];
    reply_ = from_probe[0];
    return true;
  }

  /// Runs `rounds` rounds of `work` on each of `cpus` CPUs at once, the
  /// first being the one the caller last ran on. Returns the mean time of
  /// one round in seconds, or a negative value when the probe is gone.
  double Sample(uint32_t work, int cpus, int rounds) {
    const Request request = {work, sched_getcpu(), cpus, rounds};
    double seconds = -1;
    if (write(request_, &request, sizeof(request)) != sizeof(request) ||
        read(reply_, &seconds, sizeof(seconds)) != sizeof(seconds)) {
      return -1;
    }
    return seconds;
  }

  /// Ends the probe process and waits for it.
  void Stop() {
    if (pid_ <= 0) return;
    close(request_);
    close(reply_);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  struct Request {
    uint32_t work;
    int32_t cpu;  ///< the CPU the driver last ran on
    int32_t cpus;
    int32_t rounds;
  };

  /// One CPU's share of a sample. Every round of a kind does the same
  /// amount of work; the chase and the scan go on where the last round
  /// stopped, so a round reads memory the previous one did not.
  class Kernel {
   public:
    /// Runs `rounds` rounds of `work` on `cpu`; returns seconds per round.
    double Time(uint32_t work, int cpu, int rounds) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
      if ((work & ~ready_) != 0) {
        // First use of a kind: build its data and run it once, untimed,
        // so page faults stay out of the samples.
        Build(work & ~ready_);
        Round(work & ~ready_);
        ready_ |= work;
      }
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < rounds; ++i) Round(work);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count() /
             rounds;
    }

   private:
    static constexpr size_t kChaseSlots = 16u << 20;  // 64 MB of uint32_t
    static constexpr size_t kScanWords = 8u << 20;    // 64 MB of uint64_t
    static constexpr size_t kWordsPerLine = 8;

    void Build(uint32_t work) {
      if (work & kProbeChase) {
        // Sattolo's shuffle: one cycle through every slot.
        cycle_.resize(kChaseSlots);
        for (size_t i = 0; i < kChaseSlots; ++i) {
          cycle_[i] = static_cast<uint32_t>(i);
        }
        uint64_t state = 0x2545F4914F6CDD1DULL;
        for (size_t i = kChaseSlots - 1; i > 0; --i) {
          state ^= state << 13;
          state ^= state >> 7;
          state ^= state << 17;
          std::swap(cycle_[i], cycle_[state % i]);
        }
      }
      if (work & kProbeScan) scan_.assign(kScanWords, 1);
    }

    void Round(uint32_t work) {
      if (work & kProbeHeap) Heap();
      if (work & kProbeChase) {
        uint32_t at = chase_at_;
        for (int i = 0; i < 20 * 1000; ++i) at = cycle_[at];
        chase_at_ = at;
      }
      if (work & kProbeScan) {
        uint64_t sum = 0;
        for (size_t i = 0; i < kScanWords / 2; i += kWordsPerLine) {
          sum += scan_[(scan_at_ + i) % kScanWords];
        }
        scan_at_ = (scan_at_ + kScanWords / 2) % kScanWords;
        sink_ = sink_ + sum;
      }
    }

    /// An event heap of 8K entries popped and refilled 25K times, then 6K
    /// inserts into and 6K lookups in an ordered map.
    void Heap() {
      uint64_t state = 0x9E3779B97F4A7C15ULL;
      auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
      };
      heap_.clear();
      for (int i = 0; i < 8 * 1024; ++i) {
        heap_.push_back(next());
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
      for (int i = 0; i < 25 * 1000; ++i) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        heap_.back() += next() >> 20;
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
      std::map<uint64_t, uint64_t> index;
      for (int i = 0; i < 6 * 1000; ++i) index[next() % 1000000] += i;
      uint64_t found = 0;
      for (int i = 0; i < 6 * 1000; ++i) {
        found += index.count(next() % 1000000);
      }
      sink_ = sink_ + found + heap_.front();
    }

    uint32_t ready_ = 0;  ///< kinds whose data is built and warm
    std::vector<uint64_t> heap_;
    std::vector<uint32_t> cycle_;
    uint32_t chase_at_ = 0;
    std::vector<uint64_t> scan_;
    size_t scan_at_ = 0;
    volatile uint64_t sink_ = 0;  // keeps the work from being optimized out
  };

  /// The probe's side: one sample per request until the driver closes its
  /// end of the pipe.
  static void Serve(int requests, int replies) {
    // Keep freed memory in the probe's heaps, so the heap work's map
    // nodes do not fault pages in on every round.
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    std::vector<Kernel> kernels(cpus.size());
    Request r = {};
    while (read(requests, &r, sizeof(r)) == sizeof(r)) {
      // The driver's CPU first, then the others in order.
      std::vector<int> order = cpus;
      std::stable_partition(order.begin(), order.end(),
                            [&r](int c) { return c == r.cpu; });
      const size_t n = std::min(order.size(),
                                static_cast<size_t>(std::max(1, r.cpus)));
      const int rounds = std::max(1, r.rounds);
      std::vector<double> times(n);
      std::vector<std::thread> others;
      for (size_t i = 1; i < n; ++i) {
        others.emplace_back([&, i] {
          times[i] = kernels[i].Time(r.work, order[i], rounds);
        });
      }
      times[0] = kernels[0].Time(r.work, order[0], rounds);
      for (std::thread& t : others) t.join();
      double mean = 0;
      for (double t : times) mean += t / static_cast<double>(n);
      if (write(replies, &mean, sizeof(mean)) != sizeof(mean)) return;
    }
  }

  pid_t pid_ = -1;
  int request_ = -1;
  int reply_ = -1;
};

}  // namespace elephant::bench

#endif  // ELEPHANT_BENCH_SUITE_HOST_PROBE_H_
