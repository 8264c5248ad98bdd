#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <sstream>

#include "channel/trace_cache.h"
#include "exp/json.h"
#include "exp/sweep.h"
#include "experiment_config.h"
#include "fault/fault_config.h"
#include "rate/hinted_runner.h"
#include "spans.h"
#include "topo/probe_series.h"
#include "topo/probing_eval.h"
#include "util/rng.h"
#include "vanet/link_tracker.h"
#include "vanet/road_network.h"
#include "vanet/traffic_sim.h"

namespace perfbench {

using namespace sh;

namespace {

/// 64-bit FNV-1a over bytes.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t mix_double(std::uint64_t hash, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return (hash ^ bits) * 0x100000001b3ULL;
}

std::uint64_t sample_digest(const exp::MetricSample& sample) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const auto& [name, value] : sample.entries()) {
    hash = fnv1a(name.data(), name.size(), hash);
    hash = mix_double(hash, value);
  }
  return hash;
}

bool all_finite(const exp::MetricSample& sample) {
  return std::all_of(sample.entries().begin(), sample.entries().end(),
                     [](const auto& kv) { return std::isfinite(kv.second); });
}

/// generate_trace_cached under the channel span, counting the request and,
/// on a miss, the slots generated.
std::shared_ptr<const channel::PacketFateTrace> fetch_trace(
    const channel::TraceGeneratorConfig& cfg, Counters& counters) {
  const auto misses = channel::global_trace_cache().stats().misses;
  std::shared_ptr<const channel::PacketFateTrace> trace;
  {
    Scope span("channel.generate");
    trace = channel::generate_trace_cached(cfg);
  }
  ++counters.generate_calls;
  if (channel::global_trace_cache().stats().misses != misses) {
    counters.slots += trace->size();
  }
  return trace;
}

double replay(const char* span_name, rate::RateAdapter& adapter,
              const channel::PacketFateTrace& trace, const rate::RunConfig& run,
              Counters& counters) {
  rate::RunResult result;
  {
    Scope span(span_name);
    result = rate::run_trace(adapter, trace, run);
  }
  counters.rate_attempts += result.attempts;
  counters.rate_delivered += result.delivered;
  return result.throughput_mbps;
}

/// bench::protocol_metrics with a span around every replay: the same
/// adapters, seeds and order, so the sample is bit-identical to shsweep's.
exp::MetricSample protocol_metrics(const channel::PacketFateTrace& trace,
                                   const rate::RunConfig& run,
                                   Counters& counters) {
  exp::MetricSample sample;
  rate::HintAwareRateAdapter hint(bench::lagged_truth_query(trace),
                                  util::Rng(42));
  sample.set("hint_mbps",
             replay("rate.hint_aware", hint, trace, run, counters));
  rate::RapidSample rapid;
  sample.set("rapid_mbps",
             replay("rate.rapid_sample", rapid, trace, run, counters));
  double best = 0.0;
  for (const double window_s : {2.0, 5.0, 10.0}) {
    rate::SampleRateAdapter::Params params;
    params.window = seconds(window_s);
    rate::SampleRateAdapter adapter(params, util::Rng(42));
    best = std::max(
        best, replay("rate.sample_rate", adapter, trace, run, counters));
  }
  sample.set("sample_mbps", best);
  rate::Rraa rraa;
  sample.set("rraa_mbps", replay("rate.rraa", rraa, trace, run, counters));
  rate::Rbar rbar;
  sample.set("rbar_mbps", replay("rate.rbar", rbar, trace, run, counters));
  rate::Charm charm;
  sample.set("charm_mbps", replay("rate.charm", charm, trace, run, counters));
  return sample;
}

/// Placement offsets cycle through shsweep's -2..+2 dB grid.
double offset_db(int k) { return static_cast<double>(k % 5) - 2.0; }

/// A workload whose round is one SweepRunner::run on one worker thread
/// followed by SweepResult::write_json; the JSON is the round's output.
class EngineWorkload : public Workload {
 public:
  EngineWorkload(std::string name, std::uint64_t seed)
      : name_(std::move(name)), seed_(seed) {}

  void release() override {
    runner_.reset();
    points_.clear();
    // Each round starts from an empty cache, so hit ratios never leak from
    // one round or workload into the next.
    channel::global_trace_cache().clear();
  }

  void setup() override {
    points_ = build_points();
    runner_ = std::make_unique<exp::SweepRunner>(
        exp::SweepConfig{name_, seed_, /*threads=*/1});
  }

  std::uint64_t run_round(ItemLog& items, Counters& counters) override {
    const exp::RunFn fn = [&](const exp::SweepPoint&,
                              const exp::RunContext& ctx) {
      Scope span("item", static_cast<std::int64_t>(ctx.run_index));
      const std::int64_t start = now_ns();
      exp::MetricSample sample;
      bool failed = false;
      try {
        sample = run_item(ctx, counters);
      } catch (const std::exception&) {
        failed = true;
      }
      items.add(static_cast<double>(now_ns() - start) / 1e6,
                sample_digest(sample), failed || !all_finite(sample));
      return sample;
    };
    exp::SweepResult result;
    {
      Scope span("exp.run");
      result = runner_->run(points_, fn);
    }
    std::ostringstream os;
    {
      Scope span("exp.json");
      result.write_json(os);
    }
    json_ = os.str();
    const auto stats = channel::global_trace_cache().stats();
    counters.cache_hits = stats.hits;
    counters.cache_misses = stats.misses;
    counters.cache_evictions = stats.evictions;
    counters.json_bytes = json_.size();
    return fnv1a(json_.data(), json_.size());
  }

  const std::string& output() const override { return json_; }

 protected:
  virtual std::vector<exp::SweepPoint> build_points() = 0;
  virtual exp::MetricSample run_item(const exp::RunContext& ctx,
                                     Counters& counters) = 0;

  std::string name_;
  std::uint64_t seed_;

 private:
  std::vector<exp::SweepPoint> points_;
  std::unique_ptr<exp::SweepRunner> runner_;
  std::string json_;
};

/// The default shsweep grid, run exactly as `shsweep --threads 1` runs it.
class SweepReplay final : public EngineWorkload {
  using Env = std::pair<std::string, channel::Environment>;

 public:
  SweepReplay(std::uint64_t seed, bool tiny)
      : EngineWorkload("shsweep", seed),
        envs_(tiny ? std::vector<Env>{{"office", channel::Environment::kOffice},
                                      {"vehicular",
                                       channel::Environment::kVehicular}}
                   : std::vector<Env>{
                         {"office", channel::Environment::kOffice},
                         {"hallway", channel::Environment::kHallway},
                         {"outdoor", channel::Environment::kOutdoor},
                         {"vehicular", channel::Environment::kVehicular}}),
        offsets_(tiny ? 2 : 8),
        reps_(tiny ? 1 : 4),
        duration_(seconds(tiny ? 2.0 : 10.0)) {}

 private:
  struct Cell {
    channel::Environment env;
    bool mobile;
    int offset;
  };

  std::vector<exp::SweepPoint> build_points() override {
    std::vector<exp::SweepPoint> points;
    cells_.clear();
    for (const auto& [env_name, env] : envs_) {
      for (const std::string mob : {"static", "mobile"}) {
        for (int k = 0; k < offsets_; ++k) {
          exp::SweepPoint point;
          point.label = env_name + "/" + mob + "/offset" + std::to_string(k);
          point.params = {{"environment", env_name},
                          {"mobility", mob},
                          {"offset_db", exp::json_number(offset_db(k))}};
          point.repetitions = reps_;
          points.push_back(std::move(point));
          cells_.push_back(Cell{env, mob == "mobile", k});
        }
      }
    }
    return points;
  }

  exp::MetricSample run_item(const exp::RunContext& ctx,
                             Counters& counters) override {
    const Cell& cell = cells_[ctx.point_index];
    channel::TraceGeneratorConfig cfg;
    cfg.env = cell.env;
    if (!cell.mobile) {
      cfg.scenario = sim::MobilityScenario::all_static(duration_);
    } else if (cell.env == channel::Environment::kVehicular) {
      cfg.scenario = sim::MobilityScenario::all_vehicle(duration_);
    } else {
      cfg.scenario = sim::MobilityScenario::all_walking(duration_);
    }
    // shsweep without an age dimension seeds each trace from the run index.
    cfg.seed = util::Rng::derive_seed(seed_, ctx.run_index);
    cfg.snr_offset_db = offset_db(cell.offset);
    const auto trace = fetch_trace(cfg, counters);
    rate::RunConfig run;
    run.workload = rate::Workload::kTcp;
    auto sample = protocol_metrics(*trace, run, counters);
    sample.set("delivery_6m", trace->delivery_ratio(mac::slowest_rate()));
    return sample;
  }

  std::vector<Env> envs_;
  int offsets_;
  int reps_;
  Duration duration_;
  std::vector<Cell> cells_;
};

/// Chapter 4 probing-rate evaluation over long static and walking traces.
class ProbeEval final : public EngineWorkload {
 public:
  ProbeEval(std::uint64_t seed, bool tiny)
      : EngineWorkload("probe_eval", seed),
        reps_(tiny ? 2 : 100),
        duration_(seconds(tiny ? 20.0 : 180.0)) {}

 private:
  /// The seven probing rates of Figs 4-2 and 4-3.
  static constexpr double kRates[] = {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0};

  std::vector<exp::SweepPoint> build_points() override {
    std::vector<exp::SweepPoint> points;
    for (const std::string mob : {"static", "walking"}) {
      exp::SweepPoint point;
      point.label = "office/" + mob;
      point.params = {{"environment", "office"}, {"mobility", mob}};
      point.repetitions = reps_;
      points.push_back(std::move(point));
    }
    return points;
  }

  exp::MetricSample run_item(const exp::RunContext& ctx,
                             Counters& counters) override {
    const auto trace = fetch_trace(
        bench::topo_config(ctx.point_index == 1, ctx.seed, duration_),
        counters);
    const auto series = [&] {
      Scope span("topo.series");
      return topo::ProbeSeries::from_trace(*trace);
    }();
    exp::MetricSample sample;
    for (const double rate : kRates) {
      topo::ProbingError error;
      {
        Scope span("topo.probing_error");
        error = topo::probing_error(series, rate);
      }
      const std::string suffix = exp::json_number(rate);
      sample.set("error_" + suffix, error.mean_abs_error);
      sample.set("stddev_" + suffix, error.stddev);
    }
    return sample;
  }

  int reps_;
  Duration duration_;
};

/// Mixed static/walking office traces through the full hint protocol under
/// sensor and hint faults, at several staleness watermarks per trace.
class HintPipeline final : public EngineWorkload {
 public:
  HintPipeline(std::uint64_t seed, bool tiny)
      : EngineWorkload("hint_pipeline", seed),
        offsets_(tiny ? 1 : 16),
        reps_(tiny ? 1 : 4),
        duration_(seconds(tiny ? 4.0 : 20.0)) {
    faults_.sensor.dropout_rate = 0.2;
    faults_.hint.drop_rate = 0.3;
  }

 private:
  /// The L = 4 hint_max_age watermarks. They are the innermost dimension,
  /// so the L points of one trace are consecutive and 3 of every 4 trace
  /// requests hit the cache.
  static constexpr double kAgesMs[] = {250.0, 500.0, 1000.0, 2000.0};
  static constexpr std::size_t kAges = std::size(kAgesMs);

  struct Cell {
    bool mobile_first;
    int offset;
  };

  std::vector<exp::SweepPoint> build_points() override {
    std::vector<exp::SweepPoint> points;
    cells_.clear();
    for (const bool mobile_first : {false, true}) {
      for (int k = 0; k < offsets_; ++k) {
        cells_.push_back(Cell{mobile_first, k});
        for (const double age_ms : kAgesMs) {
          exp::SweepPoint point;
          point.label = std::string(mobile_first ? "walk_first" : "static_first") +
                        "/offset" + std::to_string(k) + "/age" +
                        std::to_string(static_cast<int>(age_ms));
          point.params = {{"environment", "office"},
                          {"offset_db", exp::json_number(offset_db(k))},
                          {"hint_max_age_ms", exp::json_number(age_ms)}};
          for (auto& kv : fault::fault_params(faults_)) {
            point.params.push_back(std::move(kv));
          }
          point.repetitions = reps_;
          points.push_back(std::move(point));
        }
      }
    }
    return points;
  }

  exp::MetricSample run_item(const exp::RunContext& ctx,
                             Counters& counters) override {
    const std::size_t cell_index = ctx.point_index / kAges;
    const Cell& cell = cells_[cell_index];
    // Seeded by the cell, not the point: every watermark replays the same
    // traces, which is what makes the repeated requests cache hits.
    const std::uint64_t trace_seed = util::Rng::derive_seed(
        seed_, cell_index * static_cast<std::uint64_t>(reps_) +
                   static_cast<std::uint64_t>(ctx.repetition));
    const auto scenario =
        sim::MobilityScenario::static_then_walking(duration_, cell.mobile_first);
    channel::TraceGeneratorConfig cfg;
    cfg.env = channel::Environment::kOffice;
    cfg.scenario = scenario;
    cfg.seed = trace_seed;
    cfg.snr_offset_db = offset_db(cell.offset);
    const auto trace = fetch_trace(cfg, counters);

    rate::HintedRunConfig hinted;
    hinted.run.workload = rate::Workload::kTcp;
    hinted.sensor_seed = util::Rng::derive_seed(trace_seed, 1);
    hinted.fault = faults_;
    hinted.fault_seed = util::Rng::derive_seed(trace_seed, exp::kFaultSeedStream);
    hinted.hint_max_age = seconds(kAgesMs[ctx.point_index % kAges] / 1000.0);
    rate::HintedRunResult result;
    {
      Scope span("rate.hinted");
      result = rate::run_trace_with_hint_protocol(*trace, scenario, hinted);
    }
    counters.rate_attempts += result.run.attempts;
    counters.rate_delivered += result.run.delivered;
    counters.standalone_hint_frames += result.standalone_hint_frames;
    counters.detector_transitions += result.detector_transitions;
    counters.sensor_reports_dropped += result.sensor_reports_dropped;
    counters.hint_deliveries_dropped += result.hint_deliveries_dropped;

    exp::MetricSample sample;
    sample.set("hinted_mbps", result.run.throughput_mbps);
    sample.set("delivery_ratio", result.run.delivery_ratio);
    sample.set("hint_delay_s", result.mean_hint_delay_s);
    sample.set("detector_transitions",
               static_cast<double>(result.detector_transitions));
    sample.set("standalone_hint_frames",
               static_cast<double>(result.standalone_hint_frames));
    sample.set("sensor_reports_dropped",
               static_cast<double>(result.sensor_reports_dropped));
    sample.set("hint_deliveries_dropped",
               static_cast<double>(result.hint_deliveries_dropped));
    return sample;
  }

  int offsets_;
  int reps_;
  Duration duration_;
  fault::FaultConfig faults_;
  std::vector<Cell> cells_;
};

/// A city of vehicles stepped second by second, links tracked on a 2-thread
/// pool. The round's output is the finished link records.
class CityVanet final : public Workload {
 public:
  CityVanet(std::uint64_t seed, bool tiny)
      : seed_(seed), vehicles_(tiny ? 500 : 10'000), seconds_(tiny ? 5 : 200) {}

  void release() override {
    tracker_.reset();
    sim_.reset();
    pool_.reset();
    net_.reset();
  }

  void setup() override {
    net_ = std::make_unique<vanet::RoadNetwork>(vanet::RoadNetwork::city_for_scale(
        vehicles_, util::Rng::derive_seed(seed_, 1)));
    vanet::TrafficSim::Params params;
    params.num_vehicles = vehicles_;
    params.routing = vanet::TrafficSim::Routing::kFollowRoad;
    sim_ = std::make_unique<vanet::TrafficSim>(
        *net_, util::Rng::derive_seed(seed_, 2), params);
    pool_ = std::make_unique<exp::ThreadPool>(2);
    tracker_ = std::make_unique<vanet::LinkTracker>(vanet::LinkTracker::Params{},
                                                    pool_.get());
  }

  std::uint64_t run_round(ItemLog& items, Counters& counters) override {
    Time now = 0;
    observe(now, snapshot());
    for (int s = 0; s < seconds_; ++s) {
      Scope span("item", s);
      const std::int64_t start = now_ns();
      double item_ms = 0.0;
      std::uint64_t digest = fnv1a(nullptr, 0);
      bool failed = false;
      try {
        {
          Scope step("vanet.step");
          sim_->step(*pool_);
        }
        now += kSecond;
        const auto snap = snapshot();
        observe(now, snap);
        item_ms = static_cast<double>(now_ns() - start) / 1e6;
        for (const auto& v : snap) {
          digest = mix_double(digest, v.position.x);
          digest = mix_double(digest, v.position.y);
          digest = mix_double(digest, v.heading_deg);
        }
        digest = mix_double(digest, static_cast<double>(tracker_->active_links()));
      } catch (const std::exception&) {
        item_ms = static_cast<double>(now_ns() - start) / 1e6;
        failed = true;
      }
      items.add(item_ms, digest, failed);
    }
    std::vector<vanet::LinkRecord> links;
    {
      Scope span("vanet.finish");
      links = tracker_->finish();
    }
    counters.links = links.size();
    counters.vehicle_steps =
        static_cast<std::uint64_t>(vehicles_) * static_cast<std::uint64_t>(seconds_);
    std::uint64_t digest = fnv1a(nullptr, 0);
    for (const auto& link : links) {
      const std::int64_t fields[] = {link.vehicle_a, link.vehicle_b, link.start,
                                     link.end};
      digest = fnv1a(fields, sizeof fields, digest);
      digest = mix_double(digest, link.heading_diff_start_deg);
    }
    return digest;
  }

  const std::string& output() const override { return empty_; }
 private:
  std::vector<vanet::VehicleState> snapshot() const {
    Scope span("vanet.snapshot");
    return sim_->snapshot();
  }

  void observe(Time now, const std::vector<vanet::VehicleState>& snap) {
    Scope span("vanet.observe");
    tracker_->observe(now, snap);
  }

  std::uint64_t seed_;
  int vehicles_;
  int seconds_;
  // Declared so that destruction runs tracker, pool, sim, network: the
  // tracker uses the pool and the sim refers to the network.
  std::unique_ptr<vanet::RoadNetwork> net_;
  std::unique_ptr<vanet::TrafficSim> sim_;
  std::unique_ptr<exp::ThreadPool> pool_;
  std::unique_ptr<vanet::LinkTracker> tracker_;
  std::string empty_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "sweep_replay") return std::make_unique<SweepReplay>(seed, tiny);
  if (name == "probe_eval") return std::make_unique<ProbeEval>(seed, tiny);
  if (name == "hint_pipeline") return std::make_unique<HintPipeline>(seed, tiny);
  if (name == "city_vanet") return std::make_unique<CityVanet>(seed, tiny);
  return nullptr;
}

}  // namespace perfbench
