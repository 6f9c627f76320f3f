// Lossy, delaying, order-preserving channel (the paper's network model:
// "a network that can delay and lose, but not reorder, messages").
//
// Templated on the message payload so the sim substrate stays independent of
// the protocol layer.  Loss and delay are pluggable processes
// (sim/channel_process.hpp): iid Bernoulli loss with deterministic or
// exponential delay reproduces the paper; the Gilbert-Elliott loss process
// and the heavy-tail delay laws extend it to bursty, correlated channels.
//
// A channel object keeps only its own state -- the Gilbert-Elliott bad bit,
// the FIFO clamp and its counters -- plus pointers: to a ChannelConfig
// (simulator, loss and delay configuration) that many channels share, to
// the Rng it draws from, to a harness-owned ChannelTrace binding, and an
// OwnerCall sink that dispatches straight to the receiving object's member
// function.  A million-session farm thus holds one validated configuration
// per shard instead of two full copies per session.  The standalone
// constructors (tests, examples, benches) keep the self-contained API: they
// own their configuration and a std::function sink out of line.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sigcomp::sim {

/// A callback bound to an owner object: two words, trivially copyable, and
/// it never allocates -- the replacement for per-object std::function
/// hooks.  Default-constructed, it is a no-op.
template <typename... Args>
class OwnerCall {
 public:
  /// The no-op callback.
  OwnerCall() noexcept = default;

  /// Calls `(owner->*Method)(args...)`.
  template <auto Method, typename Owner>
  [[nodiscard]] static OwnerCall bind(Owner* owner) noexcept {
    return OwnerCall(owner, [](void* o, Args... args) {
      (static_cast<Owner*>(o)->*Method)(args...);
    });
  }

  /// Calls `(*functor)(args...)`; `functor` must outlive the callback.
  template <typename F>
  [[nodiscard]] static OwnerCall to(F* functor) noexcept {
    return OwnerCall(functor, [](void* f, Args... args) {
      (*static_cast<F*>(f))(args...);
    });
  }

  /// Invokes the bound call (nothing for the no-op callback).
  void operator()(Args... args) const {
    if (fn_ != nullptr) fn_(owner_, args...);
  }

 private:
  using Fn = void (*)(void*, Args...);
  OwnerCall(void* owner, Fn fn) noexcept : owner_(owner), fn_(fn) {}

  void* owner_ = nullptr;
  Fn fn_ = nullptr;
};

/// Counters exposed by a channel; the experiment harness aggregates these
/// into signaling-message-rate metrics.
struct ChannelCounters {
  std::uint64_t sent = 0;       ///< messages handed to the channel
  std::uint64_t delivered = 0;  ///< messages that reached the sink
  std::uint64_t lost = 0;       ///< messages dropped by the loss process
};

/// A channel's fixed configuration: the simulator it schedules on and its
/// loss and delay processes.  Built -- and validated -- once, then shared
/// by every channel that points at it (a farm shard's sessions, the two
/// directions of a tree edge).  Must outlive those channels.
struct ChannelConfig {
  /// Validates the loss, then the delay configuration (throws
  /// std::invalid_argument -- e.g. a loss probability outside [0, 1]).
  ChannelConfig(Simulator& simulator, LossConfig loss_config,
                DelayConfig delay_config)
      : sim(&simulator), loss(loss_config), delay(delay_config) {
    loss.validate();
    delay.validate();
  }

  Simulator* sim;     ///< where deliveries are scheduled
  LossConfig loss;    ///< the loss process every message steps
  DelayConfig delay;  ///< the per-message delay law
};

/// A harness-owned trace binding: which log a channel records into, the
/// label that identifies the channel in each record's detail, and how a
/// payload is rendered after it.  A null `log` records nothing and never
/// runs `describe`.
template <typename Payload>
struct ChannelTrace {
  TraceLog* log = nullptr;  ///< destination (null = tracing off)
  std::string label;        ///< detail prefix, e.g. "fwd" or "dn0"
  /// Renders a payload for the detail field ("label payload"); may be
  /// empty, in which case the detail is the label alone.
  std::function<std::string(const Payload&)> describe;
};

/// Unidirectional point-to-point channel.
template <typename Payload>
class Channel {
 public:
  /// Standalone delivery callback (the self-contained constructors).
  using Sink = std::function<void(const Payload&)>;
  /// Direct delivery: the receiving object's member, no allocation.
  using Delivery = OwnerCall<const Payload&>;

  /// Compact channel over a shared configuration: `config` and `rng` must
  /// outlive it.  FIFO order is enforced even with random delays: a
  /// message never arrives before one sent earlier.
  Channel(const ChannelConfig& config, Rng& rng, Delivery sink = {}) noexcept
      : config_(&config), rng_(&rng), sink_(sink) {}

  /// Self-contained channel: owns its configuration (validated, throws
  /// std::invalid_argument) and a std::function sink.
  Channel(Simulator& sim, Rng& rng, LossConfig loss, DelayConfig delay,
          Sink sink)
      : extras_(std::make_unique<Extras>(
            Extras{ChannelConfig(sim, loss, delay), std::move(sink)})),
        config_(&extras_->config),
        rng_(&rng) {
    bind_owned_sink();
  }

  /// Legacy convenience: iid Bernoulli(loss) with deterministic or
  /// exponential per-message delay -- the paper's channel.
  Channel(Simulator& sim, Rng& rng, double loss, double mean_delay,
          Distribution delay_dist, Sink sink)
      : Channel(sim, rng, LossConfig::iid(loss),
                DelayConfig::from(delay_dist, mean_delay), std::move(sink)) {}

  // Pending deliveries point at the channel: it never moves.
  Channel(const Channel&) = delete;             ///< non-copyable
  Channel& operator=(const Channel&) = delete;  ///< non-copyable

  /// Sends a message: counts it, applies the loss process, and if it
  /// survives schedules delivery after the (order-corrected) delay.
  void send(Payload message) {
    ++counters_.sent;
    trace(TraceCategory::kSend, message);
    if (config_->loss.drop(*rng_, bad_)) {
      ++counters_.lost;
      trace(TraceCategory::kDrop, message);
      return;
    }
    Simulator& sim = *config_->sim;
    Time arrival = sim.now() + config_->delay.sample(*rng_);
    if (arrival < last_arrival_) arrival = last_arrival_;  // no reordering
    last_arrival_ = arrival;
    sim.schedule_at(arrival, [this, m = std::move(message)] {
      ++counters_.delivered;
      trace(TraceCategory::kDeliver, m);
      sink_(m);
    });
  }

  /// Sent/delivered/lost counters since construction.
  [[nodiscard]] const ChannelCounters& counters() const noexcept { return counters_; }

  /// Long-run average loss probability (the iid loss, or the GE stationary
  /// mean).
  [[nodiscard]] double loss() const { return config_->loss.mean_loss(); }
  /// Mean one-way delay in seconds.
  [[nodiscard]] double mean_delay() const noexcept {
    return config_->delay.mean;
  }

  /// The loss process configuration this channel runs.
  [[nodiscard]] const LossConfig& loss_config() const noexcept {
    return config_->loss;
  }
  /// The delay process configuration this channel runs.
  [[nodiscard]] const DelayConfig& delay_config() const noexcept {
    return config_->delay;
  }

  /// Replaces the delivery sink (used when wiring mutually-connected nodes).
  void set_sink(Delivery sink) noexcept { sink_ = sink; }

  /// Replaces the delivery sink with a std::function, kept out of line.
  void set_sink(Sink sink) {
    extras().sink = std::move(sink);
    bind_owned_sink();
  }

  /// Changes the loss process mid-run to iid Bernoulli(loss) -- fault
  /// injection in tests: blackhole a link with loss = 1, then heal it.
  /// The channel switches to a private copy of its configuration, so
  /// channels sharing the old one are untouched.  Throws
  /// std::invalid_argument when `loss` is outside [0, 1].
  void set_loss(double loss) {
    const LossConfig iid = LossConfig::iid(loss);
    iid.validate();
    Extras& own = extras();
    own.config.loss = iid;
    config_ = &own.config;
    bad_ = false;
  }

  /// Attaches a harness-owned trace binding (null detaches); the binding
  /// must outlive the channel's traced sends and deliveries.
  void set_trace(const ChannelTrace<Payload>* binding) noexcept {
    trace_ = binding;
  }

 private:
  /// What a self-contained or fault-injected channel owns: its private
  /// configuration and its std::function sink.
  struct Extras {
    ChannelConfig config;
    Sink sink;
  };

  Extras& extras() {
    if (!extras_) extras_ = std::make_unique<Extras>(Extras{*config_, Sink{}});
    return *extras_;
  }

  void bind_owned_sink() {
    sink_ = extras_->sink ? Delivery::to(&extras_->sink) : Delivery{};
  }

  void trace(TraceCategory category, const Payload& message) {
    if (trace_ == nullptr || trace_->log == nullptr) return;
    std::string detail = trace_->label;
    if (trace_->describe) {
      detail += ' ';
      detail += trace_->describe(message);
    }
    trace_->log->record(config_->sim->now(), category, std::move(detail));
  }

  std::unique_ptr<Extras> extras_;  ///< null for a compact channel
  const ChannelConfig* config_;
  Rng* rng_;
  Delivery sink_;
  const ChannelTrace<Payload>* trace_ = nullptr;
  Time last_arrival_ = 0.0;
  ChannelCounters counters_;
  bool bad_ = false;  ///< the Gilbert-Elliott chain's state
};

}  // namespace sigcomp::sim
