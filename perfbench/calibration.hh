/**
 * @file
 * Host-speed calibration for a shared host.
 *
 * On a shared host the speed of every core drifts with the load other
 * tenants put on it, by up to 1.6x for minutes at a time (measured on a
 * 4-vCPU Xeon VM). The drift moves every batch of a run, and every run
 * of a set, together, so neither more batches nor a better statistic
 * removes it. hostbench therefore runs this fixed kernel next to every
 * batch and reports throughput relative to it, scaled to a nominal
 * host on which the kernel runs at kNominalRate.
 *
 * The kernel is a miniature discrete-event loop (a binary-heap agenda,
 * heap-allocated packets, a bounded queue scanned for a row hit, a
 * hash map of open rows), so it loads the core the way the simulator
 * does. It shares no code with the library, so no change to the
 * simulator can move it. Do not change it: every calibrated number
 * ever reported is relative to this exact code.
 */

#ifndef HOSTBENCH_CALIBRATION_HH
#define HOSTBENCH_CALIBRATION_HH

#include <cstdint>

namespace hostbench {

/** Kernel events per second on the nominal host. */
constexpr double kNominalRate = 4.0e6;

/**
 * Run the kernel once on each of @p threads threads at the same time.
 * @return the slowest thread's events per host second: a workload on
 * several threads advances in lock-stepped windows, at the pace of its
 * slowest core.
 */
double calibrationRate(unsigned threads);

} // namespace hostbench

#endif // HOSTBENCH_CALIBRATION_HH
