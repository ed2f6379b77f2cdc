/**
 * @file
 * Deterministic pseudo-random source for traffic generators and
 * workload models.
 *
 * Every consumer owns its own Random instance with an explicit seed, so
 * simulations are reproducible regardless of the order objects are
 * serviced in, and two models fed by identically-seeded generators see
 * identical request streams (essential for the model-vs-model
 * validation experiments).
 */

#ifndef DRAMCTRL_SIM_RANDOM_H
#define DRAMCTRL_SIM_RANDOM_H

#include <cstdint>

namespace dramctrl {

class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x853c49e6748fea9bULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [lo, hi] (inclusive). */
    std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Bernoulli draw: true with probability @p p. */
    bool chance(double p);

    /** Geometric-ish integer: number of failures before success(p). */
    std::uint64_t geometric(double p);

    /** Raw generator state words, for checkpointing. */
    std::uint64_t &rawState() { return state_; }
    std::uint64_t &rawInc() { return inc_; }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_RANDOM_H
