// Machine-speed probe: a fixed, self-contained discrete-event kernel that
// shares nothing with the library, timed in the same process and on the
// same CPUs just before and just after the farm call.
//
// Why it exists: on the shared VMs this benchmark runs on, the speed of a
// vCPU drifts by up to 1.6x over minutes (another tenant's load on the
// host), far more than any change worth measuring.  The probe does the same
// kind of work as the farm -- a binary-heap event loop with lazily
// cancelled timers over per-session records -- once over a cache-resident
// working set and once over one larger than the last-level cache, so its
// time tracks both kinds of slowdown while no change to src/ can move it.
// run.py divides the farm's times by the probe's (README.md,
// "Machine-speed normalization").
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace perfbench {

/// One pass of the probe's event loop over `kSessions` records of
/// 4 * (kWords + 1) bytes; returns its wall time in seconds.
template <std::uint32_t kSessions, std::uint32_t kWords>
double probe_pass_seconds() {
  constexpr std::uint32_t kEvents = 400000;
  struct Session {
    std::uint32_t generation = 0;
    std::uint32_t state[kWords] = {};
  };
  struct Event {
    double time;
    std::uint32_t session;
    std::uint32_t generation;
    bool operator>(const Event& other) const { return time > other.time; }
  };
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<Session> sessions(kSessions);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    queue.push(Event{static_cast<double>(next() % 5000) * 1e-3, s, 0});
  }
  std::uint64_t executed = 0;
  while (executed < kEvents) {
    const Event e = queue.top();
    queue.pop();
    Session& session = sessions[e.session];
    if (e.generation != session.generation) continue;  // cancelled
    ++executed;
    const std::uint64_t r = next();
    session.state[r % kWords] += static_cast<std::uint32_t>(r >> 40);
    queue.push(Event{e.time + 5.0 + static_cast<double>(r % 1000) * 1e-3,
                     e.session, session.generation});
    // Refresh re-arm: one timer in three is cancelled (left behind as a
    // stale entry) and pushed again.
    if (r % 3 == 0) {
      ++session.generation;
      queue.push(Event{e.time + 5.0 + static_cast<double>(r % 997) * 1e-3,
                       e.session, session.generation});
    }
  }
  std::uint64_t check = 0;
  for (const Session& s : sessions) check += s.state[0];
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // `check` keeps the state updates observable; it is never all ones.
  return check == ~0ULL ? seconds + 1.0 : seconds;
}

/// The probe kernel: 512 KiB of records, then 32 MiB of them.  It runs on
/// one vCPU, which is all a one-worker workload uses.
inline double probe_seconds() {
  return probe_pass_seconds<4096, 31>() + probe_pass_seconds<32768, 255>();
}

}  // namespace perfbench
