// Mirrors exp::SweepRunner's wall-clock read (src/exp/sweep.cpp): a
// steady_clock read that feeds timing numbers only (never experiment output)
// is sanctioned through the inline same-line allow. shlint must exit 0 — this
// fixture pins the wiring src/exp/sweep.cpp relies on to survive the
// repo-wide acceptance scan.
#include <chrono>

double now_ns() {
  const auto t = std::chrono::steady_clock::now();  // shlint:allow(D1) ns/op timing only
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

double measure_once(double (*op)()) {
  const double t0 = now_ns();
  const double sink = op();
  return now_ns() - t0 + 0.0 * sink;
}
