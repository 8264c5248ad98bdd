// Link tracking over vehicle trajectories (paper §5.1.2): two vehicles share
// a link at a given second iff they are within `range_m` (100 m, geographic
// proximity as the paper's crude connectivity surrogate). For every link the
// tracker records start/end times and the heading difference at link birth —
// the inputs to Table 5.1.
//
// The tracker is streaming: feed it one snapshot per simulated second with
// observe() and it never needs the whole trajectory in memory — the shape a
// 100k-vehicle city run requires. Proximity comes from the SpatialHash
// stencil (optionally sharded over a thread pool), and every output — link
// records, and the link-up/link-down event stream — is emitted in vehicle-id
// order regardless of the scan's discovery order, so results are
// byte-identical at any thread count (DESIGN.md "City-scale VANET").
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"
#include "vanet/spatial_hash.h"
#include "vanet/traffic_sim.h"

namespace sh::exp {
class ThreadPool;
}

namespace sh::vanet {

struct LinkRecord {
  int vehicle_a = 0;
  int vehicle_b = 0;
  Time start = 0;
  Time end = 0;  ///< Last second the link was observed up.
  double heading_diff_start_deg = 0.0;

  double duration_s() const noexcept { return to_seconds(end - start); }
};

/// One link transition. Within a step, events are ordered by (a, b) vehicle
/// id — never by scan discovery order, which is a function of cell layout
/// (and, sharded, of scheduling).
struct LinkEvent {
  Time time = 0;
  bool up = false;  ///< true = link formed, false = link broke.
  int vehicle_a = 0;
  int vehicle_b = 0;
  double heading_diff_deg = 0.0;  ///< Birth heading difference; 0 on down.
};

/// Incremental link tracker over a stream of per-second snapshots.
class LinkTracker {
 public:
  struct Params {
    double range_m = 100.0;
    /// Gaussian noise added to the headings used for the birth-time
    /// difference, modelling compass/GPS hints rather than ground truth.
    double heading_noise_deg = 0.0;
    std::uint64_t noise_seed = 1;
    /// Record the LinkEvent stream (off by default: at city scale the
    /// stream is large and most callers only want the records).
    bool record_events = false;
  };

  explicit LinkTracker(Params params, exp::ThreadPool* pool = nullptr);

  /// Observes one snapshot at time `now`. Snapshots must arrive in
  /// nondecreasing time order and all have the same vehicle count; throws
  /// std::invalid_argument, leaving the tracker unchanged, otherwise.
  void observe(Time now, const std::vector<VehicleState>& snapshot);

  /// Closes links still up at the final observed timestamp (matching the
  /// paper's finite simulation windows) and returns every link record. Ends
  /// the stream: the next observe() starts a new one, at any time and with
  /// any vehicle count.
  std::vector<LinkRecord> finish();

  const std::vector<LinkEvent>& events() const noexcept { return events_; }
  std::size_t active_links() const noexcept { return active_.size(); }

 private:
  Params params_;
  exp::ThreadPool* pool_;
  util::Rng noise_rng_;
  SpatialHash hash_;
  /// Active links sorted by (a, b). Each step merges them with the sorted
  /// pair list into next_active_ and swaps the two, so both keep their
  /// storage and closing sweeps run in id order.
  std::vector<LinkRecord> active_;
  std::vector<LinkRecord> next_active_;
  /// The current stream's last time and vehicle count, once it has begun.
  bool streaming_ = false;
  Time last_now_ = 0;
  std::size_t num_vehicles_ = 0;
  std::vector<LinkRecord> completed_;
  std::vector<LinkEvent> events_;
};

/// Scans a trajectory log and returns every completed link. Convenience
/// wrapper over LinkTracker for logs that fit in memory; identical output.
std::vector<LinkRecord> extract_links(const TrajectoryLog& log,
                                      double range_m = 100.0,
                                      double heading_noise_deg = 0.0,
                                      std::uint64_t noise_seed = 1);

}  // namespace sh::vanet
