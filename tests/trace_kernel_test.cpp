// The `kernel` tier: everything that pins the block trace-generation kernel
// (DESIGN.md "Block trace kernel") to its random-access reference.
//
//  * differential — generate_trace_block must be bit-identical to
//    generate_trace_scalar (ChannelRealization::snr_db_at / moving_at, one
//    slot at a time): every true-SNR double compared with ==, plus an FNV-1a
//    hash of the serialized trace, across all environments x
//    static/mobile/vehicular, odd block sizes, and trace lengths straddling
//    block boundaries (0 / 1 / block-1 / block+1 slots).
//  * property — >= 100 randomized mobility layouts (phase edges landing
//    mid-block on purpose): BlockSampler::sample_n must equal snr_db_at /
//    moving_at bit-exactly for every slot midpoint, also when a run starts
//    earlier than the one before it.
//  * detmath — scalar call == batch call for every kernel the block path
//    uses, including the n = 1 degenerate batch.
//  * snr model — best_rate_for_snr's hoisted frame-length shift must agree
//    with per-rate delivery_probability, and DeliveryModel (scalar and
//    batched) must reproduce delivery_probability bit-exactly.
//
// CI runs this tier under ASan/UBSan and TSan (`ctest -L
// 'unit|fault|vanet|kernel'`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "channel/snr_model.h"
#include "channel/trace_generator.h"
#include "sim/mobility.h"
#include "util/detmath.h"
#include "util/rng.h"

namespace sh::channel {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string serialized(const PacketFateTrace& trace) {
  std::ostringstream os;
  trace.save(os);
  return os.str();
}

constexpr Environment kAllEnvironments[] = {
    Environment::kOffice, Environment::kHallway, Environment::kOutdoor,
    Environment::kVehicular};

const char* env_name(Environment env) {
  switch (env) {
    case Environment::kOffice: return "office";
    case Environment::kHallway: return "hallway";
    case Environment::kOutdoor: return "outdoor";
    case Environment::kVehicular: return "vehicular";
  }
  return "?";
}

enum class Mobility { kStatic, kMobile, kVehicular };

TraceGeneratorConfig kernel_config(Environment env, Mobility mob,
                                   Duration total, std::uint64_t seed = 77) {
  TraceGeneratorConfig cfg;
  cfg.env = env;
  switch (mob) {
    case Mobility::kStatic:
      cfg.scenario = sim::MobilityScenario::all_static(total);
      break;
    case Mobility::kMobile:
      cfg.scenario = sim::MobilityScenario::all_walking(total);
      break;
    case Mobility::kVehicular:
      cfg.scenario = sim::MobilityScenario::all_vehicle(total);
      break;
  }
  cfg.seed = seed;
  return cfg;
}

/// The differential core: block kernel vs scalar reference for one config
/// and block size. Every true-SNR double must be the same bits (EXPECT_EQ
/// on doubles is exact), and the serialized traces must hash identically.
void expect_block_matches_scalar(const TraceGeneratorConfig& cfg,
                                 std::size_t block_slots,
                                 const std::string& what) {
  std::vector<double> scalar_snr;
  std::vector<double> block_snr;
  const auto scalar = generate_trace_scalar(cfg, &scalar_snr);
  const auto block = generate_trace_block(cfg, block_slots, &block_snr);
  ASSERT_EQ(scalar.size(), block.size()) << what;
  ASSERT_EQ(scalar_snr.size(), block_snr.size()) << what;
  for (std::size_t i = 0; i < scalar_snr.size(); ++i) {
    ASSERT_EQ(scalar_snr[i], block_snr[i])
        << what << ": true-SNR double diverges at slot " << i;
  }
  EXPECT_EQ(fnv1a(serialized(scalar)), fnv1a(serialized(block)))
      << what << ": serialized trace hash diverges";
}

// ---------------------------------------------------------------------------
// Differential: block == scalar, bit for bit.

TEST(TraceKernelDifferentialTest, AllEnvironmentsAndMobilities) {
  for (const Environment env : kAllEnvironments) {
    for (const Mobility mob :
         {Mobility::kStatic, Mobility::kMobile, Mobility::kVehicular}) {
      const auto cfg = kernel_config(env, mob, 4 * kSecond);
      expect_block_matches_scalar(
          cfg, kDefaultTraceBlockSlots,
          std::string(env_name(env)) + "/" +
              std::to_string(static_cast<int>(mob)));
    }
  }
}

TEST(TraceKernelDifferentialTest, BlockSizeCannotChangeOutput) {
  // Mixed scenario so phase edges land mid-block for every size, plus
  // vehicular for the distance-checkpoint walk.
  for (const std::size_t block_slots : {std::size_t{1}, std::size_t{7},
                                        std::size_t{256}, std::size_t{4093}}) {
    auto cfg = kernel_config(Environment::kOffice, Mobility::kStatic,
                             3 * kSecond);
    cfg.scenario = sim::MobilityScenario::static_then_walking(3 * kSecond);
    expect_block_matches_scalar(cfg, block_slots,
                                "office/mixed block=" +
                                    std::to_string(block_slots));
    const auto veh = kernel_config(Environment::kVehicular,
                                   Mobility::kVehicular, 3 * kSecond);
    expect_block_matches_scalar(
        veh, block_slots, "vehicular block=" + std::to_string(block_slots));
  }
}

TEST(TraceKernelDifferentialTest, TraceLengthEdges) {
  // Slot counts straddling the default block boundary: 0 (duration shorter
  // than one slot), 1, block-1, block+1. A trailing partial slot is
  // truncated by contract, so length is floor(total / slot).
  const Duration slot = 5 * kMillisecond;
  const std::size_t b = kDefaultTraceBlockSlots;
  for (const std::size_t slots : {std::size_t{0}, std::size_t{1}, b - 1,
                                  b + 1}) {
    const Duration total =
        slots == 0 ? 2 * kMillisecond
                   : static_cast<Duration>(slots) * slot + 2 * kMillisecond;
    const auto cfg =
        kernel_config(Environment::kOffice, Mobility::kMobile, total);
    std::vector<double> snr;
    const auto trace = generate_trace_block(cfg, b, &snr);
    ASSERT_EQ(trace.size(), slots);
    ASSERT_EQ(snr.size(), slots);
    expect_block_matches_scalar(cfg, b, "len=" + std::to_string(slots));
  }
}

TEST(TraceKernelDifferentialTest, DefaultGenerateTraceIsTheBlockKernel) {
  // generate_trace must be the block kernel at the default size — and
  // therefore, transitively, bit-identical to the scalar reference. This is
  // the test that lets the golden pins stay untouched while the kernel
  // underneath them changed.
  const auto cfg = kernel_config(Environment::kOffice, Mobility::kMobile,
                                 4 * kSecond, 12345);
  EXPECT_EQ(serialized(generate_trace(cfg)),
            serialized(generate_trace_block(cfg, kDefaultTraceBlockSlots)));
  EXPECT_EQ(serialized(generate_trace(cfg)),
            serialized(generate_trace_scalar(cfg)));
}

// ---------------------------------------------------------------------------
// Property: BlockSampler == random access bit-exactly.

TEST(TraceKernelPropertyTest, RandomSegmentLayoutsMatchRandomAccessBitExactly) {
  // 100+ randomized layouts. Phase durations are drawn in raw microseconds
  // (not slot multiples), so phase, Doppler, shadow, and checkpoint edges
  // land mid-slot and mid-block — the worst case for the span-slicing walk.
  util::Rng rng(0xB10CC0DEULL);
  constexpr int kLayouts = 120;
  for (int layout = 0; layout < kLayouts; ++layout) {
    const auto env = kAllEnvironments[static_cast<std::size_t>(
        rng.uniform_int(0, 3))];
    const int num_phases = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<sim::MobilityPhase> phases;
    phases.reserve(static_cast<std::size_t>(num_phases));
    for (int p = 0; p < num_phases; ++p) {
      sim::MobilityPhase phase;
      phase.duration = rng.uniform_int(1, 900 * kMillisecond);
      const int state = static_cast<int>(rng.uniform_int(0, 2));
      phase.state = static_cast<sim::MotionState>(state);
      phase.speed_mps = phase.state == sim::MotionState::kStatic
                            ? 0.0
                            : rng.uniform(0.5, 20.0);
      phases.push_back(phase);
    }
    const ChannelRealization channel(env, sim::MobilityScenario(phases),
                                     rng(), DriveByGeometry{},
                                     rng.uniform(-3.0, 3.0));
    ChannelRealization::BlockSampler sampler(channel);

    const Duration slot = 5 * kMillisecond;
    const auto n = static_cast<std::size_t>(
        channel.scenario().total_duration() / slot);
    if (n == 0) continue;
    std::vector<Time> mid(n);
    std::vector<double> snr(n);
    const std::unique_ptr<bool[]> moving(new bool[n]);
    for (std::size_t k = 0; k < n; ++k) {
      mid[k] = static_cast<Time>(k) * slot + slot / 2;
    }
    sampler.sample_n(mid.data(), n, snr.data(), moving.get());
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(channel.snr_db_at(mid[k]), snr[k])
          << "layout " << layout << " env " << env_name(env) << " slot " << k;
      ASSERT_EQ(channel.moving_at(mid[k]), moving[k])
          << "layout " << layout << " slot " << k;
    }
  }
}

TEST(BlockSamplerTest, BackwardsRunFallsBackNotStale) {
  // Drive the sampler deep into a 30 s vehicular trace, then start runs
  // earlier than their predecessors: every value must still be the
  // random-access one (reset-and-rewalk, never a stale segment). Three
  // phases, so the backwards steps cross phase, Doppler, shadowing, and
  // distance-checkpoint edges as well as interference bursts.
  const sim::MobilityScenario scenario({
      {10 * kSecond, sim::MotionState::kVehicle, 12.0},
      {5 * kSecond, sim::MotionState::kStatic, 0.0},
      {15 * kSecond, sim::MotionState::kVehicle, 20.0},
  });
  const ChannelRealization ch(Environment::kVehicular, scenario, 93);
  ChannelRealization::BlockSampler sampler(ch);
  constexpr std::size_t kRun = 200;
  std::vector<Time> mid(kRun);
  std::vector<double> snr(kRun);
  const std::unique_ptr<bool[]> moving(new bool[kRun]);
  const Time starts[] = {29 * kSecond, 0,           17 * kSecond,
                         2 * kSecond,  25 * kSecond, kMillisecond};
  for (const Time start : starts) {
    for (std::size_t k = 0; k < kRun; ++k) {
      mid[k] = start + static_cast<Time>(k) * 3 * kMillisecond;
    }
    sampler.sample_n(mid.data(), kRun, snr.data(), moving.get());
    for (std::size_t k = 0; k < kRun; ++k) {
      ASSERT_EQ(snr[k], ch.snr_db_at(mid[k])) << "t=" << mid[k];
      ASSERT_EQ(moving[k], ch.moving_at(mid[k])) << "t=" << mid[k];
    }
  }
}

TEST(BlockSamplerTest, ScenarioWithoutPhasesMatchesRandomAccess) {
  // A default-constructed scenario has no phases; MobilityScenario reports
  // its default (static) phase at every time, and so must the sampler.
  const sim::MobilityScenario scenario;
  for (const Environment env : kAllEnvironments) {
    const ChannelRealization ch(env, scenario, 94);
    ChannelRealization::BlockSampler sampler(ch);
    constexpr std::size_t kRun = 64;
    std::vector<Time> mid(kRun);
    std::vector<double> snr(kRun);
    const std::unique_ptr<bool[]> moving(new bool[kRun]);
    for (std::size_t k = 0; k < kRun; ++k) {
      mid[k] = static_cast<Time>(k) * 7 * kMillisecond;
    }
    sampler.sample_n(mid.data(), kRun, snr.data(), moving.get());
    for (std::size_t k = 0; k < kRun; ++k) {
      ASSERT_EQ(snr[k], ch.snr_db_at(mid[k]))
          << "env " << env_name(env) << " slot " << k;
      ASSERT_EQ(moving[k], ch.moving_at(mid[k]))
          << "env " << env_name(env) << " slot " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// detmath: scalar == batch for every kernel the block path leans on.

TEST(DetmathConsistencyTest, BatchFormsMatchScalarBitExactly) {
  util::Rng rng(0xDE7E57ULL);
  constexpr std::size_t kN = 4096;
  std::vector<double> x(kN), s_batch(kN), c_batch(kN), e_batch(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    // Mix in-range, out-of-range (libm fallback), and sign-edge inputs so
    // both the fast loop and the guarded per-element loop are exercised.
    switch (i % 5) {
      case 0: x[i] = rng.uniform(-100.0, 100.0); break;
      case 1: x[i] = rng.uniform(-1e8, 1e8); break;  // beyond kTrigBound
      case 2: x[i] = rng.uniform(-700.0, 700.0); break;
      case 3: x[i] = rng.uniform(-1e-12, 1e-12); break;
      default: x[i] = (i % 2 == 0) ? 0.0 : -0.0; break;
    }
  }
  util::detmath::sin_n(x.data(), kN, s_batch.data());
  util::detmath::cos_n(x.data(), kN, c_batch.data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(util::detmath::dsin(x[i]), s_batch[i]) << "x=" << x[i];
    ASSERT_EQ(util::detmath::dcos(x[i]), c_batch[i]) << "x=" << x[i];
    // sincos_n over one element: its scalar (guarded) path when x[i] is
    // out of the fast loop's range.
    double si = 0.0, ci = 0.0;
    util::detmath::sincos_n(&x[i], 1, &si, &ci);
    ASSERT_EQ(si, s_batch[i]);
    ASSERT_EQ(ci, c_batch[i]);
  }
  std::vector<double> xe(kN);
  for (std::size_t i = 0; i < kN; ++i) xe[i] = rng.uniform(-750.0, 750.0);
  util::detmath::exp_n(xe.data(), kN, e_batch.data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(util::detmath::dexp(xe[i]), e_batch[i]) << "x=" << xe[i];
  }
}

TEST(DetmathConsistencyTest, AccumulatorsMatchSingleSlotForm) {
  // fade_sum_n must reproduce FadingProcess::gain_db's scattered sums —
  // gi, gq from 0.0, paths in order, one dcos per path and component — at
  // every slot, whatever the batch length (the chunked fast loop, its
  // padded tail, and n = 1), and on the guarded loop too: the second path
  // set has a rate beyond the precheck and the second tau set values past
  // the tau bound.
  util::Rng rng(0xACC5ULL);
  constexpr std::size_t kN = 513;
  constexpr std::size_t kPaths = 16;
  const double two_pi = 6.283185307179586;
  std::vector<double> omega(kPaths), pi(kPaths), pq(kPaths);
  for (std::size_t p = 0; p < kPaths; ++p) {
    omega[p] = two_pi * std::cos(rng.uniform(0.0, two_pi));
    pi[p] = rng.uniform(0.0, two_pi);
    pq[p] = rng.uniform(0.0, two_pi);
  }
  std::vector<double> tau(kN), tau_far(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    tau[i] = rng.uniform(0.0, 50.0);
    tau_far[i] = i % 5 == 0 ? rng.uniform(1e7, 2e7) : tau[i];
  }
  std::vector<double> omega_far = omega;
  omega_far[7] = 1e3;
  struct Case {
    const std::vector<double>* omega;
    const std::vector<double>* tau;
  };
  for (const Case c : {Case{&omega, &tau}, Case{&omega_far, &tau},
                       Case{&omega, &tau_far}}) {
    const std::vector<double>& w = *c.omega;
    const std::vector<double>& t = *c.tau;
    std::vector<double> gi_b(kN, 0.25), gq_b(kN, -0.5);
    util::detmath::fade_sum_n(t.data(), kN, w.data(), pi.data(), pq.data(),
                              kPaths, gi_b.data(), gq_b.data());
    // Uneven pieces: 7-slot calls cross the 16-slot chunk edges.
    std::vector<double> gi_p(kN), gq_p(kN);
    for (std::size_t i = 0; i < kN; i += 7) {
      const std::size_t len = std::min<std::size_t>(7, kN - i);
      util::detmath::fade_sum_n(&t[i], len, w.data(), pi.data(), pq.data(),
                                kPaths, &gi_p[i], &gq_p[i]);
    }
    for (std::size_t i = 0; i < kN; ++i) {
      double gi = 0.0;
      double gq = 0.0;
      for (std::size_t p = 0; p < kPaths; ++p) {
        const double theta = w[p] * t[i];
        gi += util::detmath::dcos(theta + pi[p]);
        gq += util::detmath::dcos(theta + pq[p]);
      }
      double gi_s = 0.0;
      double gq_s = 0.0;
      util::detmath::fade_sum_n(&t[i], 1, w.data(), pi.data(), pq.data(),
                                kPaths, &gi_s, &gq_s);
      ASSERT_EQ(gi, gi_b[i]) << "tau=" << t[i];
      ASSERT_EQ(gq, gq_b[i]) << "tau=" << t[i];
      ASSERT_EQ(gi, gi_p[i]) << "tau=" << t[i];
      ASSERT_EQ(gq, gq_p[i]) << "tau=" << t[i];
      ASSERT_EQ(gi, gi_s) << "tau=" << t[i];
      ASSERT_EQ(gq, gq_s) << "tau=" << t[i];
    }
  }

  // sinusoid_accumulate_n with n = 1 must equal the batched call
  // element-wise — why the scalar offset_db and the block kernel agree.
  const double omega_s = rng.uniform(0.1, 60.0);
  const double phase_s = rng.uniform(0.0, 6.28);
  std::vector<double> acc_b(kN, 1.0), acc_s(kN, 1.0);
  util::detmath::sinusoid_accumulate_n(tau.data(), kN, 2.5, omega_s, phase_s,
                                       acc_b.data());
  for (std::size_t i = 0; i < kN; ++i) {
    util::detmath::sinusoid_accumulate_n(&tau[i], 1, 2.5, omega_s, phase_s,
                                         &acc_s[i]);
    ASSERT_EQ(acc_s[i], acc_b[i]) << "x=" << tau[i];
  }
}

// ---------------------------------------------------------------------------
// SNR model: the hoisted length shift and the batched delivery model.

TEST(SnrModelTest, BestRateMatchesPerRateProbabilities) {
  // Pin for the best_rate_for_snr refactor (the frame-length log2 is now
  // hoisted out of the rate loop): the selected rate must still be exactly
  // "highest rate whose delivery_probability >= target, else slowest", with
  // the probabilities taken from delivery_probability itself.
  for (const int payload : {200, 1000, 1500}) {
    for (const double target : {0.5, 0.9}) {
      for (double snr = -5.0; snr <= 40.0; snr += 0.25) {
        mac::RateIndex expected = mac::slowest_rate();
        for (mac::RateIndex r = mac::fastest_rate(); r > mac::slowest_rate();
             --r) {
          if (delivery_probability(snr, r, payload) >= target) {
            expected = r;
            break;
          }
        }
        ASSERT_EQ(best_rate_for_snr(snr, target, payload), expected)
            << "snr=" << snr << " payload=" << payload << " target=" << target;
      }
    }
  }
}

TEST(SnrModelTest, DeliveryModelMatchesScalarBitExactly) {
  for (const int payload : {200, 1000, 1500}) {
    const DeliveryModel model(payload);
    std::vector<double> snr;
    for (double v = -10.0; v <= 45.0; v += 0.125) snr.push_back(v);
    std::vector<double> probs(snr.size());
    for (mac::RateIndex r = 0; r < mac::kNumRates; ++r) {
      model.probabilities_n(snr.data(), snr.size(), r, probs.data());
      for (std::size_t i = 0; i < snr.size(); ++i) {
        ASSERT_EQ(model.probability(snr[i], r), probs[i])
            << "snr=" << snr[i] << " rate=" << static_cast<int>(r);
        ASSERT_EQ(delivery_probability(snr[i], r, payload), probs[i])
            << "snr=" << snr[i] << " rate=" << static_cast<int>(r);
      }
    }
  }
}

}  // namespace
}  // namespace sh::channel
