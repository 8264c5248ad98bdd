#include "channel/environment.h"

namespace sh::channel {

const EnvironmentProfile& environment_profile(Environment env) noexcept {
  // Mean SNR anchors: hallway LOS supports 54M most of the time (>= ~22 dB),
  // office NLOS sits around the 24-36M thresholds so rate choice matters,
  // outdoor in between, vehicular nominal at closest approach (path loss on
  // top of this is applied by the trace generator's distance profile).
  // Static Doppler is a residual of distant environmental motion: the
  // channel of a truly still device is coherent over many seconds, which is
  // what lets static protocols trust long histories (and what the paper's
  // Chapter 4 static probing results demonstrate).
  static const EnvironmentProfile kOffice{
      "office", 18.0, 5.0, 6.0, 2.0, 1.0, {0.001, 45.0, 19.3},
      1.4, 12 * kMillisecond, 18.0};
  static const EnvironmentProfile kHallway{
      "hallway", 25.0, 4.0, 10.0, 8.0, 0.8, {0.0008, 45.0, 19.3},
      1.0, 10 * kMillisecond, 16.0};
  static const EnvironmentProfile kOutdoor{
      "outdoor", 22.0, 4.5, 8.0, 4.0, 1.0, {0.0012, 45.0, 19.3},
      1.2, 10 * kMillisecond, 16.0};
  static const EnvironmentProfile kVehicular{
      "vehicular", 27.0, 4.0, 4.0, 5.0, 1.5, {0.001, 45.0, 19.3},
      0.8, 10 * kMillisecond, 16.0};
  switch (env) {
    case Environment::kOffice: return kOffice;
    case Environment::kHallway: return kHallway;
    case Environment::kOutdoor: return kOutdoor;
    case Environment::kVehicular: return kVehicular;
  }
  return kOffice;
}

std::string_view environment_name(Environment env) noexcept {
  return environment_profile(env).name;
}

std::optional<Environment> environment_from_name(std::string_view name) {
  for (const auto env : {Environment::kOffice, Environment::kHallway,
                         Environment::kOutdoor, Environment::kVehicular}) {
    if (environment_name(env) == name) return env;
  }
  return std::nullopt;
}

}  // namespace sh::channel
