// Single-hop simulation harness.
//
// Executes the real protocol engines over a lossy channel with the renewal
// construction the analytic model uses for its stationary analysis: the
// instant a session is absorbed (state removed at both ends), a new session
// begins.  Reports the same metrics as analytic::SingleHopModel, so the two
// can be compared directly (Figs. 11 and 12 of the paper).
#pragma once

#include <cstdint>

#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace sigcomp::protocols {

/// Law of the sender's session lifetime.  The analytic model assumes
/// exponential; measured P2P/membership session lengths are heavy-tailed,
/// so the simulator can probe the model's robustness to that assumption.
enum class LifetimeDistribution {
  kExponential,  ///< the model's assumption
  kPareto,       ///< heavy tail; `lifetime_shape` is the tail index (> 1)
  kLognormal,    ///< skewed; `lifetime_shape` is sigma (log-scale spread)
};

/// Options of a single simulation run.
struct SimOptions {
  std::uint64_t seed = 1;       ///< RNG family seed
  std::size_t sessions = 2000;  ///< renewal sessions to simulate
  /// Protocol timers: deterministic reproduces the paper's simulation
  /// (Figs. 11-12); exponential matches the analytic model's assumption
  /// (used by the validation tests).
  sim::Distribution timer_dist = sim::Distribution::kDeterministic;
  /// Channel delay law.  The mean is always params.delay; `delay_shape` is
  /// the Pareto tail index or lognormal sigma for the heavy-tail laws.
  /// (The loss process comes from the parameter set: see
  /// SingleHopParams::loss_config and with_bursty_loss.)
  sim::DelayModel delay_model = sim::DelayModel::kExponential;
  double delay_shape = 1.5;  ///< Pareto tail index / lognormal sigma

  /// Fraction of sessions that end in a sender CRASH instead of a graceful
  /// removal: nothing is signaled and the receiver's orphaned state must be
  /// cleaned up by timeout (soft state) or the external failure detector
  /// (hard state).  Clark's survivability scenario.
  double crash_fraction = 0.0;
  /// Mean delay for the hard-state external detector to notice a crashed
  /// sender (exponentially distributed).  Ignored by soft-state protocols,
  /// which recover via their own timeout.
  double crash_detection_delay = 5.0;

  /// Staged-retransmission backoff factor (1.0 = fixed Gamma, the paper's
  /// protocols; 2.0 = classic exponential backoff).
  double retrans_backoff = 1.0;

  /// Session-lifetime law; the mean is always params.mean_lifetime().
  LifetimeDistribution lifetime_dist = LifetimeDistribution::kExponential;
  /// Tail index (Pareto, must be > 1) or sigma (lognormal).
  double lifetime_shape = 1.5;

  /// Optional trace sink; when set, channel send/drop/deliver events and
  /// session lifecycle events are recorded.
  sim::TraceLog* trace = nullptr;
};

/// Result of one simulation run.
struct SimResult {
  Metrics metrics;                 ///< same semantics as the analytic Metrics
  std::uint64_t messages = 0;      ///< total signaling messages sent
  double total_time = 0.0;         ///< simulated seconds until last absorption
  std::size_t sessions = 0;        ///< completed sessions
  std::uint64_t receiver_timeouts = 0;  ///< soft-state timeout expirations
  std::size_t crashes = 0;         ///< sessions that ended in a sender crash
  /// Mean time from sender removal/crash until the receiver's copy was
  /// gone (the orphaned-state window), across all sessions.
  double mean_orphan_time = 0.0;
};

/// Runs one replication.  Throws std::invalid_argument on bad parameters.
[[nodiscard]] SimResult run_single_hop(ProtocolKind kind,
                                       const SingleHopParams& params,
                                       const SimOptions& options);

/// Inconsistency-ratio and normalized-message-rate estimates with 95%
/// confidence intervals across `replications` independent runs (seeds
/// options.seed, options.seed + 1, ...).
struct ReplicatedResult {
  sim::ConfidenceInterval inconsistency;  ///< inconsistency ratio I
  sim::ConfidenceInterval message_rate;   ///< normalized message rate M
  std::size_t replications = 0;           ///< independent runs aggregated
};

/// Runs `replications` independent simulations and aggregates them (see
/// ReplicatedResult).
[[nodiscard]] ReplicatedResult run_single_hop_replicated(
    ProtocolKind kind, const SingleHopParams& params, const SimOptions& options,
    std::size_t replications);

}  // namespace sigcomp::protocols
