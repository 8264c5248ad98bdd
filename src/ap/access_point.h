// Access-point downlink simulator (paper §5.2, Fig 5-1).
//
// Models the behaviours the paper observed in a commercial AP and the
// hint-aware fixes it proposes:
//  * per-client ARF-style rate fallback (consecutive ACK losses step the
//    rate down, successes step it back up);
//  * a retry chain per frame (each retry burns airtime);
//  * frame-level or time-based fairness between backlogged clients;
//  * pruning of unreachable clients only after a long timeout (the default
//    that produces the Fig 5-1 collapse), or immediately upon a movement
//    hint + loss (the paper's adaptive disassociation), after which the
//    parked client is probed occasionally and cheaply;
//  * optional scheduling bias towards mobile clients (§5.2.2).
//
// The simulation is a sequential airtime loop: the scheduler picks a client,
// the AP transmits one frame (with retries), and the clock advances by the
// airtime consumed.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "mac/airtime.h"
#include "mac/rates.h"
#include "sim/ids.h"
#include "transport/throughput_meter.h"
#include "util/rng.h"
#include "util/time.h"

namespace sh::ap {

/// Per-client downlink description supplied by the experiment: the delivery
/// probability of a frame sent to this client at a given time and rate
/// (0 when the client has left radio range).
using LinkModel = std::function<double(Time, mac::RateIndex)>;

struct ClientConfig {
  sim::NodeId id = 0;
  LinkModel link;
  bool backlogged = true;  ///< Infinite downlink demand.
};

class AccessPointSim {
 public:
  enum class Fairness { kFrame, kTime };

  struct Params {
    Fairness fairness = Fairness::kFrame;
    int retry_limit = 7;
    Duration prune_timeout = 10 * kSecond;  ///< Default (hint-free) pruning.
    bool hint_aware_pruning = false;
    int park_after_failures = 3;  ///< Hint + this many losses parks a client.
    Duration parked_probe_interval = kSecond;
    int payload_bytes = 1500;
    int probe_payload_bytes = 40;
    int arf_down_after = 2;   ///< Consecutive losses before stepping down.
    int arf_up_after = 10;    ///< Consecutive successes before stepping up.
    bool favor_mobile_clients = false;  ///< §5.2.2 adaptive scheduling.
    double mobile_weight = 2.0;
    /// A movement hint older than this no longer drives hint-aware pruning
    /// or scheduling — the AP reverts to its hint-free defaults for that
    /// client until a new hint arrives. 0 = trust hints forever (legacy).
    Duration hint_max_age = 0;
  };

  AccessPointSim(Params params, std::uint64_t seed);

  void add_client(ClientConfig config);

  /// Injects a movement hint received from `client` (via the Hint Protocol)
  /// that will take effect once the simulation clock reaches `when`.
  void schedule_hint(Time when, sim::NodeId client, bool moving);

  /// Runs the downlink until the simulated clock reaches `end`.
  void run_until(Time end);

  Time now() const noexcept { return now_; }

  struct ClientStats {
    transport::ThroughputMeter meter{kSecond};
    std::uint64_t frames_delivered = 0;
    std::uint64_t frames_lost = 0;       ///< Attempts that got no ACK.
    std::uint64_t probe_frames = 0;      ///< Park-mode probes sent.
    bool pruned = false;
    Time pruned_at = 0;
    bool parked = false;
    mac::RateIndex current_rate = mac::fastest_rate();
  };
  const ClientStats& stats(sim::NodeId client) const;

 private:
  struct Client {
    ClientConfig config;
    ClientStats stats;
    int consecutive_losses = 0;
    int consecutive_successes = 0;
    Time last_ack = 0;
    Time next_probe_at = 0;
    double airtime_used_us = 0.0;  ///< For time-based fairness.
    bool moving_hint = false;
    Time last_hint_at = 0;
    bool ever_hinted = false;
  };

  Client* pick_client();
  void serve_data_frame(Client& client);
  void serve_parked_probe(Client& client);
  void apply_due_hints();
  void apply_arf(Client& client, bool acked);
  double fairness_key(const Client& client) const;
  /// The client's movement hint, gated by Params::hint_max_age.
  bool usable_moving_hint(const Client& client) const;

  Params params_;
  util::Rng rng_;
  Time now_ = 0;
  std::vector<Client> clients_;
  struct PendingHint {
    Time when;
    sim::NodeId client;
    bool moving;
  };
  std::vector<PendingHint> pending_hints_;
  std::size_t next_rr_ = 0;  ///< Round-robin cursor for frame fairness.
};

}  // namespace sh::ap
