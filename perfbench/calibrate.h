#ifndef PRISMA_PERFBENCH_CALIBRATE_H_
#define PRISMA_PERFBENCH_CALIBRATE_H_

namespace prisma::perfbench {

/// Wall time the calibration kernel takes on an uncontended 2.1 GHz Xeon
/// vCPU.
inline constexpr double kNominalKernelUs = 2500;

/// Runs the calibration kernel once and returns its wall time in µs.
///
/// The kernel is fixed work that shares none of the program's code: a
/// heap of std::function events, a hash table of strings and an ordered
/// map, the same kinds of work the simulator's event loop does. On a
/// shared host the CPU speed swings by up to 2x over seconds; timing the
/// kernel next to a measurement and scaling the measurement by
/// kNominalKernelUs / kernel time removes most of that swing, while a
/// change to the program still moves the scaled figure in full.
double KernelUs();

/// `x`, a host measurement taken between two kernel runs, scaled to the
/// nominal CPU speed by the mean of those runs.
inline double Scaled(double x, double kernel_before_us,
                     double kernel_after_us) {
  return x * kNominalKernelUs / ((kernel_before_us + kernel_after_us) / 2);
}

}  // namespace prisma::perfbench

#endif  // PRISMA_PERFBENCH_CALIBRATE_H_
