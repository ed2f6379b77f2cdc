/**
 * @file
 * Linear (sequential) traffic generator: a wrapping sequential address
 * stream, as used for the latency studies (paper Figures 6 and 7).
 */

#ifndef DRAMCTRL_TRAFFICGEN_LINEAR_GEN_H
#define DRAMCTRL_TRAFFICGEN_LINEAR_GEN_H

#include "ckpt/ckpt.hh"
#include "trafficgen/base_gen.hh"

namespace dramctrl {

class LinearGen : public BaseGen
{
  public:
    LinearGen(Simulator &sim, std::string name, const GenConfig &cfg,
              RequestorId id)
        : BaseGen(sim, std::move(name), cfg, id),
          next_(cfg.startAddr)
    {}

    void
    checkpoint(ckpt::Io &io) override
    {
        BaseGen::checkpoint(io);
        io.u64("next", next_);
    }

  protected:
    Addr
    nextAddr() override
    {
        Addr a = next_;
        next_ += genConfig().blockSize;
        if (next_ + genConfig().blockSize >
            genConfig().startAddr + genConfig().windowSize)
            next_ = genConfig().startAddr;
        return a;
    }

  private:
    Addr next_;
};

} // namespace dramctrl

#endif // DRAMCTRL_TRAFFICGEN_LINEAR_GEN_H
