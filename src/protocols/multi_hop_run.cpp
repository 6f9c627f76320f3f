#include "protocols/multi_hop_run.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng_streams.hpp"
#include "protocols/chain.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace sigcomp::protocols {

namespace {

class MultiHopRun {
 public:
  MultiHopRun(ProtocolKind kind, analytic::HeteroMultiHopParams params,
              const MultiHopSimOptions& options)
      : params_(std::move(params)),
        options_(options),
        mech_(mechanisms(kind)),
        rng_channel_(options.seed, rng::kTreeChannel),
        rng_nodes_(options.seed, rng::kTreeNodes),
        rng_lifecycle_(options.seed, rng::kTreeLifecycle),
        rng_failure_(options.seed, rng::kTreeFailure) {
    params_.validate();
    if (!supports_multi_hop(kind)) {
      throw std::invalid_argument("run_multi_hop: unsupported protocol " +
                                  std::string(to_string(kind)));
    }
    const std::size_t k = params_.hops();
    TimerSettings timers;
    timers.dist = options.timer_dist;
    timers.refresh = params_.refresh_timer;
    timers.timeout = params_.timeout_timer;
    timers.retrans = params_.retrans_timer;

    // Hop i's forward and reverse directions share the link's loss/delay.
    std::vector<sim::LossConfig> hop_loss;
    std::vector<sim::DelayConfig> hop_delay;
    hop_loss.reserve(k);
    hop_delay.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      hop_loss.push_back(params_.hop_loss_config(i));
      hop_delay.push_back(sim::DelayConfig{options.delay_model,
                                           params_.delay[i],
                                           options.delay_shape});
    }
    chain_ = std::make_unique<Chain>(sim_, rng_channel_, rng_nodes_, mech_,
                                     timers, hop_loss, hop_delay,
                                     [this] { on_change(); }, options_.trace);

    inconsistent_hops_.assign(k, sim::TimeWeightedValue{});
  }

  MultiHopSimResult run() {
    chain_->sender().start(++version_);
    schedule_update();
    if (mech_.external_failure_detector && params_.false_signal_rate > 0.0) {
      for (std::size_t i = 0; i < params_.hops(); ++i) schedule_false_signal(i);
    }
    sim_.run_until(options_.duration);

    MultiHopSimResult out;
    out.duration = options_.duration;
    out.messages = chain_->messages_sent();
    out.relay_timeouts = chain_->relay_timeouts();
    for (std::size_t i = 0; i < params_.hops(); ++i) {
      out.hop_inconsistency.push_back(
          inconsistent_hops_[i].mean(options_.duration));
    }
    out.metrics.inconsistency = any_inconsistent_.mean(options_.duration);
    out.metrics.raw_message_rate =
        static_cast<double>(out.messages) / options_.duration;
    out.metrics.message_rate = out.metrics.raw_message_rate;
    return out;
  }

 private:
  void schedule_update() {
    if (params_.update_rate <= 0.0) return;
    sim_.schedule_in(rng_lifecycle_.exponential(1.0 / params_.update_rate),
                     [this] {
                       chain_->sender().update(++version_);
                       schedule_update();
                     });
  }

  void schedule_false_signal(std::size_t relay) {
    sim_.schedule_in(
        rng_failure_.exponential(1.0 / params_.false_signal_rate),
        [this, relay] {
          chain_->relay(relay).external_removal_signal();
          schedule_false_signal(relay);
        });
  }

  void on_change() {
    bool all_ok = true;
    for (std::size_t i = 0; i < chain_->hops(); ++i) {
      const bool ok = chain_->relay(i).value() == chain_->sender().value();
      inconsistent_hops_[i].set(sim_.now(), ok ? 0.0 : 1.0);
      all_ok = all_ok && ok;
    }
    any_inconsistent_.set(sim_.now(), all_ok ? 0.0 : 1.0);
  }

  analytic::HeteroMultiHopParams params_;
  MultiHopSimOptions options_;
  MechanismSet mech_;

  sim::Simulator sim_;
  sim::Rng rng_channel_;
  sim::Rng rng_nodes_;
  sim::Rng rng_lifecycle_;
  sim::Rng rng_failure_;
  std::unique_ptr<Chain> chain_;

  std::vector<sim::TimeWeightedValue> inconsistent_hops_;
  sim::TimeWeightedValue any_inconsistent_;
  std::int64_t version_ = 0;
};

}  // namespace

MultiHopSimResult run_multi_hop(ProtocolKind kind, const MultiHopParams& params,
                                const MultiHopSimOptions& options) {
  params.validate();
  return run_multi_hop(kind,
                       analytic::HeteroMultiHopParams::from_homogeneous(params),
                       options);
}

MultiHopSimResult run_multi_hop(ProtocolKind kind,
                                const analytic::HeteroMultiHopParams& params,
                                const MultiHopSimOptions& options) {
  if (options.duration <= 0.0) {
    throw std::invalid_argument("run_multi_hop: duration must be > 0");
  }
  MultiHopRun run(kind, params, options);
  return run.run();
}

MultiHopReplicatedResult run_multi_hop_replicated(
    ProtocolKind kind, const MultiHopParams& params,
    const MultiHopSimOptions& options, std::size_t replications) {
  if (replications == 0) {
    throw std::invalid_argument("run_multi_hop_replicated: need >= 1 replication");
  }
  sim::RunningStats inconsistency;
  sim::RunningStats message_rate;
  sim::RunningStats last_hop;
  for (std::size_t r = 0; r < replications; ++r) {
    MultiHopSimOptions rep = options;
    rep.seed = options.seed + r;
    const MultiHopSimResult result = run_multi_hop(kind, params, rep);
    inconsistency.add(result.metrics.inconsistency);
    message_rate.add(result.metrics.raw_message_rate);
    last_hop.add(result.hop_inconsistency.back());
  }
  MultiHopReplicatedResult out;
  out.inconsistency = sim::confidence_interval_95(inconsistency);
  out.message_rate = sim::confidence_interval_95(message_rate);
  out.last_hop_inconsistency = sim::confidence_interval_95(last_hop);
  out.replications = replications;
  return out;
}

}  // namespace sigcomp::protocols
