// Session-farm benchmark sampler: one workload, one seed, one farm call per
// process.  run.py starts it fresh for every sample and aggregates.
//
//   farm_bench --workload NAME --seed N [--sessions N] [--trace]
//   farm_bench --percentile Q V...   (test hook: nearest-rank percentile)
//
// Untraced, it times exp::run_session_farm from outside (wall, process CPU,
// RSS before and peak) and prints one JSON line of those measurements and
// the farm's bit-exact counters.  With --trace it also keeps the
// per-session metrics for the FNV-1a digest, runs the one-shard replica
// (replica.hpp) with spans off and on, times calls into sim::EventQueue,
// sim::Channel, sim::Rng and protocols::Topology at the replica's depth and
// mix, and adds a "layers" object of per-layer metrics.
//
// Exit status: 0 on success, 1 on any error, 2 when the build is not an
// optimized non-sanitizer build (its numbers must never be quoted).
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/session_farm.hpp"
#include "probe.hpp"
#include "protocols/topology.hpp"
#include "replica.hpp"
#include "sim/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sigcomp;
using perfbench::Spans;
using Clock = std::chrono::steady_clock;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::size_t sessions = 0;  ///< 0 = the workload's size
  bool trace = false;
};

std::uint64_t parse_count(std::string_view flag, const char* text) {
  const std::string s(text);
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 18) {
    throw std::invalid_argument(std::string(flag) +
                                " needs a non-negative integer, got '" + s +
                                "'");
  }
  return std::stoull(s);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--trace") {
      args.trace = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(flag) + " needs a value");
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_count(flag, value);
      args.have_seed = true;
    } else if (flag == "--sessions") {
      args.sessions = static_cast<std::size_t>(parse_count(flag, value));
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (args.workload.empty() || !args.have_seed) {
    throw std::invalid_argument(
        "usage: farm_bench --workload NAME --seed N [--sessions N] [--trace]");
  }
  return args;
}

/// Pins the process to `count` CPUs so the farm's workers and the
/// machine-speed probe share vCPUs and the probe sees the drift the farm
/// saw.  CPU 0, which takes most interrupts, is left out when there is room.
void pin_to_cpus(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const std::size_t first = cpus.size() > count ? 1 : 0;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (std::size_t i = first; i < cpus.size() && i < first + count; ++i) {
    CPU_SET(cpus[i], &chosen);
  }
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// Runs the machine-speed probe in a forked child, so the probe's memory
/// never shows in this process's RSS or peak RSS, and returns its time.
double probe_in_child() {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // The child never returns into the caller's stack.
    close(fds[0]);
    bool ok = false;
    try {
      const double seconds = perfbench::probe_seconds();
      ok = write(fds[1], &seconds, sizeof seconds) ==
           static_cast<ssize_t>(sizeof seconds);
    } catch (...) {
    }
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0.0;
  const bool got = read(fds[0], &seconds, sizeof seconds) ==
                   static_cast<ssize_t>(sizeof seconds);
  close(fds[0]);
  int status = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (!got || waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("machine-speed probe failed");
  }
  return seconds;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Resident set right now, from /proc/self/statm (pages).
std::uint64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(statm >> size >> resident)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Peak resident set of the process (getrusage reports KiB on Linux).
std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024U;
}

/// FNV-1a over every double of every session's Metrics, in global session
/// order -- the construction bench/perf_scale.cpp's metrics_digest uses.
std::uint64_t metrics_digest(const std::vector<Metrics>& sessions) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (std::size_t i = 0; i < sizeof(bits); ++i) {
      hash ^= (bits >> (8 * i)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Metrics& m : sessions) {
    mix(m.inconsistency);
    mix(m.message_rate);
    mix(m.raw_message_rate);
    mix(m.session_length);
    mix(m.breakdown.trigger);
    mix(m.breakdown.refresh);
    mix(m.breakdown.explicit_removal);
    mix(m.breakdown.reliable_trigger);
    mix(m.breakdown.reliable_removal);
  }
  return hash;
}

// ------------------------------------------------------------ JSON out --

/// Writes one flat JSON object; keys are fixed identifiers (no escaping).
class JsonLine {
 public:
  void number(std::string_view key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    field(key, std::isfinite(v) ? os.str() : "null");
  }
  void integer(std::string_view key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void text(std::string_view key, std::string_view v) {
    field(key, "\"" + std::string(v) + "\"");
  }
  void raw(std::string_view key, const std::string& json) { field(key, json); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void field(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + value;
  }
  std::string body_;
};

/// Per-layer metrics: name -> [value, unit].
class Layers {
 public:
  void add(const std::string& name, double value, std::string_view unit) {
    std::ostringstream os;
    os.precision(17);
    os << "[" << (std::isfinite(value) ? value : 0.0) << ", \"" << unit
       << "\"]";
    json_.raw(name, os.str());
  }

  /// A timing span as p50, p99 and sample count (0, 0, 0 when the layer
  /// is not exercised by the workload).
  void span(const std::string& name, std::vector<double> samples) {
    add(name + ".p50", percentile(samples, 0.50), "ns");
    add(name + ".p99", percentile(samples, 0.99), "ns");
    add(name + ".samples", static_cast<double>(samples.size()), "count");
  }

  /// Nearest-rank percentile (0 for no samples).
  static double percentile(std::vector<double>& samples, double q) {
    if (samples.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const std::size_t k =
        std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
  }

  [[nodiscard]] std::string str() const { return json_.str(); }

 private:
  JsonLine json_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --------------------------------------------------------- calibrations --
//
// Layers the replica cannot wrap from outside (the engines call the queue,
// their channels and their RNGs internally) are timed here by calling the
// same public classes directly, at the depth and operation mix the replica
// measured.

volatile double g_sink = 0.0;  // keeps timed RNG draws observable

/// Cost of one empty span: two back-to-back clock reads.
double clock_read_ns() {
  std::vector<double> samples;
  samples.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t t0 = Spans::now_ns();
    samples.push_back(static_cast<double>(Spans::now_ns() - t0));
  }
  return Layers::percentile(samples, 0.5);
}

/// Live-set bookkeeping for the queue replay: popped events remove
/// themselves, so cancels always target a pending event.
struct LiveSet {
  std::vector<std::uint32_t> list;
  std::vector<std::uint32_t> pos;
  std::vector<sim::EventId> ids;

  void add(std::uint32_t i, sim::EventId id) {
    pos.push_back(static_cast<std::uint32_t>(list.size()));
    ids.push_back(id);
    list.push_back(i);
  }
  void remove(std::uint32_t i) {
    const std::uint32_t p = pos[i];
    const std::uint32_t last = list.back();
    list[p] = last;
    pos[last] = p;
    list.pop_back();
  }
};

struct RemoveOnPop {
  LiveSet* live;
  std::uint32_t index;
  void operator()() const { live->remove(index); }
};

struct QueueSpans {
  std::vector<double> push;
  std::vector<double> cancel;
  std::vector<double> pop;
};

/// Hold-model replay on a standalone sim::EventQueue: `depth` live events,
/// and per pop `push_per_pop` pushes and `cancel_per_pop` cancels, each
/// op timed on its own.
QueueSpans queue_replay(std::size_t depth, double push_per_pop,
                        double cancel_per_pop, std::uint64_t seed) {
  constexpr std::size_t kPops = 200000;
  sim::EventQueue queue;
  sim::Rng rng(seed, 0xbe);
  LiveSet live;
  const double mean_delay =
      static_cast<double>(std::max<std::size_t>(depth, 1));
  double now = 0.0;
  const auto push = [&](QueueSpans* spans) {
    const auto index = static_cast<std::uint32_t>(live.ids.size());
    const double t = now + rng.exponential(mean_delay);
    const std::uint64_t t0 = Spans::now_ns();
    const sim::EventId id = queue.push(t, RemoveOnPop{&live, index});
    if (spans) spans->push.push_back(static_cast<double>(Spans::now_ns() - t0));
    live.add(index, id);
  };
  for (std::size_t i = 0; i < depth; ++i) push(nullptr);
  QueueSpans spans;
  double push_credit = 0.0;
  double cancel_credit = 0.0;
  for (std::size_t r = 0; r < kPops && !queue.empty(); ++r) {
    std::uint64_t t0 = Spans::now_ns();
    sim::EventQueue::PoppedEvent event = queue.pop();
    spans.pop.push_back(static_cast<double>(Spans::now_ns() - t0));
    now = event.time;
    event.action();
    for (push_credit += push_per_pop; push_credit >= 1.0; push_credit -= 1.0) {
      push(&spans);
    }
    for (cancel_credit += cancel_per_pop;
         cancel_credit >= 1.0 && !live.list.empty(); cancel_credit -= 1.0) {
      const std::uint32_t victim =
          live.list[rng.uniform_int(live.list.size())];
      live.remove(victim);
      t0 = Spans::now_ns();
      queue.cancel(live.ids[victim]);
      spans.cancel.push_back(static_cast<double>(Spans::now_ns() - t0));
    }
  }
  return spans;
}

/// sim::Channel::send on a channel configured like the workload's, into a
/// simulator that is drained between bursts.
std::vector<double> channel_send_spans(const sim::LossConfig& loss,
                                       const sim::DelayConfig& delay,
                                       std::uint64_t seed) {
  sim::Simulator simulator;
  sim::Rng rng(seed, 0xc4);
  std::uint64_t delivered = 0;
  protocols::MessageChannel channel(
      simulator, rng, loss, delay,
      [&delivered](const protocols::Message&) { ++delivered; });
  std::vector<double> samples;
  protocols::Message message;
  for (int burst = 0; burst < 80; ++burst) {
    for (int k = 0; k < 256; ++k) {
      message.seq = static_cast<std::uint64_t>(burst * 256 + k);
      const std::uint64_t t0 = Spans::now_ns();
      channel.send(message);
      samples.push_back(static_cast<double>(Spans::now_ns() - t0));
    }
    simulator.run();
  }
  if (delivered + channel.counters().lost != channel.counters().sent) {
    throw std::logic_error("channel calibration lost track of a message");
  }
  return samples;
}

/// sim::Rng draws (the exponential law the timers and delays use), timed
/// in batches of 64 and reported per draw.
std::vector<double> rng_draw_spans(std::uint64_t seed) {
  constexpr int kBatch = 64;
  sim::Rng rng(seed, 0xd7);
  std::vector<double> samples;
  double acc = 0.0;
  for (int b = 0; b < 4096; ++b) {
    const std::uint64_t t0 = Spans::now_ns();
    for (int k = 0; k < kBatch; ++k) acc += rng.exponential(5.0);
    samples.push_back(static_cast<double>(Spans::now_ns() - t0) / kBatch);
  }
  g_sink = acc;
  return samples;
}

/// protocols::Topology::leave / join on one tree of the workload, with the
/// simulator advanced between calls so grafts and prunes propagate.
std::vector<double> join_leave_spans(std::uint64_t seed) {
  const analytic::TreeParams params = perfbench::tree_params();
  std::vector<sim::LossConfig> edge_loss;
  std::vector<sim::DelayConfig> edge_delay;
  for (std::size_t e = 0; e < params.edges(); ++e) {
    edge_loss.push_back(params.edge_loss_config(e));
    edge_delay.push_back(sim::DelayConfig{sim::DelayModel::kExponential,
                                          params.delay[e], 1.5});
  }
  sim::Simulator simulator;
  sim::Rng channel_rng(seed, 0xe1);
  sim::Rng node_rng(seed, 0xe2);
  protocols::Topology topology(
      simulator, channel_rng, node_rng, mechanisms(perfbench::kProtocol),
      protocols::TimerSettings{sim::Distribution::kDeterministic,
                               params.refresh_timer, params.timeout_timer,
                               params.retrans_timer},
      params.tree, edge_loss, edge_delay, [] {});
  topology.sender().start(1);
  simulator.run_until(1.0);
  std::vector<double> samples;
  const std::vector<std::size_t> leaves = params.tree.leaves();
  for (int round = 0; round < 64; ++round) {
    for (const std::size_t leaf : leaves) {
      std::uint64_t t0 = Spans::now_ns();
      topology.leave(leaf);
      samples.push_back(static_cast<double>(Spans::now_ns() - t0));
      simulator.run_until(simulator.now() + 0.05);
      t0 = Spans::now_ns();
      topology.join(leaf);
      samples.push_back(static_cast<double>(Spans::now_ns() - t0));
      simulator.run_until(simulator.now() + 0.05);
    }
  }
  topology.stop();
  return samples;
}

// ---------------------------------------------------------------- main --

std::string trace_layers(const perfbench::Workload& w, std::uint64_t seed,
                         const exp::SessionFarmResult& farm, double wall_s,
                         double cpu_s, double probe_s) {
  Layers layers;
  layers.add("machine.probe_s", probe_s, "s");
  const auto sessions = static_cast<double>(farm.sessions);
  const auto events = static_cast<double>(farm.events_executed);
  layers.add("exp.farm.run_s", wall_s, "s");
  layers.add("exp.farm.events_per_s", ratio(events, wall_s), "1/s");
  layers.add("exp.farm.events_per_session", ratio(events, sessions), "count");
  layers.add("exp.farm.peak_in_flight",
             static_cast<double>(farm.peak_sessions_in_flight), "count");
  layers.add("exp.farm.cpu_busy_ratio",
             ratio(cpu_s, wall_s * static_cast<double>(w.workers)),
             "fraction");
  layers.add("exp.arena.slot_high_water",
             static_cast<double>(farm.arena_slot_high_water), "count");
  layers.add("exp.arena.chunk_allocations",
             static_cast<double>(farm.arena_chunk_allocations), "count");
  layers.add("protocols.messages_per_session",
             ratio(static_cast<double>(farm.messages), sessions), "count");
  layers.add("protocols.timeouts_per_session",
             ratio(static_cast<double>(farm.receiver_timeouts), sessions),
             "count");
  layers.add("protocols.churn.joins", static_cast<double>(farm.churn.joins),
             "count");
  layers.add("protocols.churn.leaves", static_cast<double>(farm.churn.leaves),
             "count");
  const auto fabric = static_cast<double>(farm.fabric_messages);
  layers.add("exp.fabric.messages_per_session", ratio(fabric, sessions),
             "count");
  layers.add("exp.fabric.messages_per_epoch",
             ratio(fabric, static_cast<double>(farm.fabric_epochs)), "count");
  layers.add("exp.fabric.epochs", static_cast<double>(farm.fabric_epochs),
             "count");
  layers.add("exp.fabric.rings", static_cast<double>(farm.fabric_rings),
             "count");
  layers.add("exp.fabric.drop_ratio",
             ratio(static_cast<double>(farm.fabric_dropped), fabric),
             "fraction");
  layers.add("protocols.relay.installs",
             static_cast<double>(farm.relay_installs), "count");
  layers.add("protocols.relay.refreshes",
             static_cast<double>(farm.relay_refreshes), "count");
  layers.add("protocols.relay.soft_timeouts",
             static_cast<double>(farm.relay_soft_timeouts), "count");

  // The replica, untraced then traced: the wall-time ratio is what the
  // spans cost.  A first untraced pass warms the allocator and caches, so
  // neither timed pass pays for first touch.
  const std::size_t farm_sessions = farm.sessions - farm.relay_sessions;
  (void)perfbench::run_replica(w, farm_sessions, seed, false);
  const perfbench::ReplicaResult plain =
      perfbench::run_replica(w, farm_sessions, seed, false);
  perfbench::ReplicaResult traced =
      perfbench::run_replica(w, farm_sessions, seed, true);
  if (traced.events != plain.events || traced.messages != plain.messages) {
    throw std::logic_error("replica is not deterministic across trace modes");
  }
  const auto rep_sessions = static_cast<double>(traced.sessions);
  const double rep_events = ratio(static_cast<double>(traced.events),
                                  rep_sessions);
  const double rep_messages = ratio(static_cast<double>(traced.messages),
                                    rep_sessions);
  layers.add("trace.overhead_ratio", ratio(traced.wall_s, plain.wall_s),
             "fraction");
  layers.add("trace.clock_read_ns", clock_read_ns(), "ns");
  layers.add("replica.events_per_session", rep_events, "count");
  layers.add("replica.messages_per_session", rep_messages, "count");
  layers.add("replica.events_ratio",
             ratio(rep_events, ratio(events, sessions)), "fraction");
  layers.add("replica.messages_ratio",
             ratio(rep_messages,
                   ratio(static_cast<double>(farm.messages), sessions)),
             "fraction");
  layers.add("sim.queue.depth", Layers::percentile(traced.depth, 0.5),
             "events");
  const double rep_executed = static_cast<double>(traced.events);
  layers.add("sim.queue.pushes_per_event",
             ratio(static_cast<double>(traced.pushes), rep_executed), "count");
  layers.add("sim.queue.cancels_per_event",
             ratio(static_cast<double>(traced.cancels), rep_executed),
             "count");
  layers.span("sim.step_ns", traced.spans.samples(perfbench::kStep));
  layers.span("protocols.handle_ns", traced.spans.samples(perfbench::kHandle));
  layers.span("protocols.session_build_ns",
              traced.spans.samples(perfbench::kSessionBuild));
  layers.span("protocols.topology.build_ns",
              traced.spans.samples(perfbench::kTopologyBuild));
  layers.span("exp.arena.spawn_ns",
              traced.spans.samples(perfbench::kArenaSpawn));
  layers.span("exp.arena.retire_ns",
              traced.spans.samples(perfbench::kArenaRetire));
  layers.span("exp.ring.push_pop_ns",
              traced.spans.samples(perfbench::kRingPushPop));
  layers.span("exp.ring.drain_sort_ns",
              traced.spans.samples(perfbench::kRingDrainSort));

  const auto depth = static_cast<std::size_t>(
      std::max(1.0, Layers::percentile(traced.depth, 0.5)));
  QueueSpans queue = queue_replay(
      depth, ratio(static_cast<double>(traced.pushes), rep_executed),
      ratio(static_cast<double>(traced.cancels), rep_executed), seed);
  layers.span("sim.queue.push_ns", std::move(queue.push));
  layers.span("sim.queue.cancel_ns", std::move(queue.cancel));
  layers.span("sim.queue.pop_ns", std::move(queue.pop));

  const SingleHopParams single = SingleHopParams::kazaa_defaults();
  const analytic::TreeParams tree = perfbench::tree_params();
  const bool is_tree = w.kind == perfbench::SessionKind::kTree;
  const double delay = is_tree ? tree.delay[0] : single.delay;
  layers.span("sim.channel.send_ns",
              channel_send_spans(
                  is_tree ? tree.edge_loss_config(0) : single.loss_config(),
                  sim::DelayConfig{sim::DelayModel::kExponential, delay, 1.5},
                  seed));
  layers.span("sim.rng.draw_ns", rng_draw_spans(seed));
  layers.span("protocols.membership.join_leave_ns",
              is_tree ? join_leave_spans(seed) : std::vector<double>{});

  return layers.str();
}

/// Test hook: `farm_bench --percentile Q V...` prints the nearest-rank
/// percentile every span metric uses.
int print_percentile(int argc, char** argv) {
  std::vector<double> values;
  for (int i = 3; i < argc; ++i) values.push_back(std::stod(argv[i]));
  std::cout << Layers::percentile(values, std::stod(argv[2])) << "\n";
  return 0;
}

int run(int argc, char** argv, Clock::time_point entry) {
  if (!kOptimized || kSanitized ||
      std::string_view(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::cerr << "farm_bench: refusing to run a Debug or sanitizer build ("
              << PERFBENCH_BUILD_TYPE << "); its numbers must not be quoted\n";
    return 2;
  }
  const Args args = parse_args(argc, argv);
  const perfbench::Workload* workload = perfbench::find_workload(args.workload);
  if (workload == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  const std::size_t sessions =
      args.sessions > 0 ? args.sessions : workload->sessions;
  exp::SessionFarmOptions options =
      perfbench::farm_options(*workload, sessions, args.seed);
  options.keep_per_session = args.trace;
  const bool is_tree = workload->kind == perfbench::SessionKind::kTree;
  const analytic::TreeParams tree =
      is_tree ? perfbench::tree_params() : analytic::TreeParams{};
  const SingleHopParams single = SingleHopParams::kazaa_defaults();
  exp::ParallelSweep pool(workload->workers);
  options.engine = &pool;

  // Setup ends here: the probe is the benchmark's, not the program's.
  const Clock::time_point setup_done = Clock::now();
  const double probe_before_s = probe_in_child();
  const std::uint64_t rss_before = current_rss_bytes();
  const double cpu_before = cpu_seconds();
  const Clock::time_point start = Clock::now();
  const exp::SessionFarmResult farm =
      is_tree ? exp::run_session_farm(perfbench::kProtocol, tree, options)
              : exp::run_session_farm(perfbench::kProtocol, single, options);
  const Clock::time_point stop = Clock::now();
  const double cpu_s = cpu_seconds() - cpu_before;
  const double wall_s = seconds_between(start, stop);
  const std::uint64_t peak = peak_rss_bytes();
  const double probe_after_s = probe_in_child();
  // The probes bracket the farm call; their mean is the machine's speed
  // while the farm ran.
  const double probe_s = 0.5 * (probe_before_s + probe_after_s);

  JsonLine out;
  out.text("workload", workload->name);
  out.integer("seed", args.seed);
  out.text("build_type", PERFBENCH_BUILD_TYPE);
  out.integer("workers", workload->workers);
  out.integer("requested", sessions + options.shared_relays);
  out.integer("completed", farm.sessions);
  out.number("setup_s", seconds_between(entry, setup_done));
  out.number("farm_wall_s", wall_s);
  out.number("farm_cpu_s", cpu_s);
  out.number("probe_s", probe_s);
  out.number("probe_before_s", probe_before_s);
  out.number("probe_after_s", probe_after_s);
  out.integer("rss_before_bytes", rss_before);
  out.integer("peak_rss_bytes", peak);
  out.integer("peak_sessions_in_flight", farm.peak_sessions_in_flight);
  out.integer("events_executed", farm.events_executed);
  out.integer("messages", farm.messages);
  out.integer("receiver_timeouts", farm.receiver_timeouts);
  // Exact bits, so run.py can compare runs without rounding.
  out.text("mean_inconsistency_bits",
           std::to_string(std::bit_cast<std::uint64_t>(
               farm.summary.mean.inconsistency)));
  out.number("mean_inconsistency", farm.summary.mean.inconsistency);
  out.integer("fabric_messages", farm.fabric_messages);
  out.integer("fabric_dropped", farm.fabric_dropped);
  out.integer("fabric_epochs", farm.fabric_epochs);
  out.integer("churn_joins", farm.churn.joins);
  out.integer("churn_leaves", farm.churn.leaves);
  if (args.trace) {
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      metrics_digest(farm.per_session)));
    out.text("digest", digest);
    out.raw("layers",
            trace_layers(*workload, args.seed, farm, wall_s, cpu_s, probe_s));
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Pinning is the benchmark's, not the program's: it (and any migration
    // it forces) happens before the setup clock starts.
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string_view(argv[i]) != "--workload") continue;
      const perfbench::Workload* w = perfbench::find_workload(argv[i + 1]);
      if (w != nullptr) pin_to_cpus(w->workers);
    }
  } catch (const std::exception& e) {
    std::cerr << "farm_bench: " << e.what() << "\n";
    return 1;
  }
  const Clock::time_point entry = Clock::now();
  try {
    if (argc >= 3 && std::string_view(argv[1]) == "--percentile") {
      return print_percentile(argc, argv);
    }
    return run(argc, argv, entry);
  } catch (const std::exception& e) {
    std::cerr << "farm_bench: " << e.what() << "\n";
    return 1;
  }
}
