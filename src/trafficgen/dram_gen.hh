/**
 * @file
 * DRAM-aware traffic generator (the paper's own contribution in
 * Section III-A).
 *
 * The generator knows the DRAM's page size, bank count and address
 * mapping. It walks a configurable number of banks round-robin and, on
 * each visit, plays a sequential stride of bytes into a *fresh* row of
 * that bank, so the row-buffer hit rate is exactly
 * (stride/burst - 1) / (stride/burst) under an open-page policy, and
 * every access after the first of a stride conflicts with the row just
 * closed under a closed-page policy. Sweeping the stride from one burst
 * to a full page and the bank count from one to all banks exposes tRCD,
 * tCL, tRP, tRRD and tFAW exactly as the paper's bandwidth experiments
 * (Figures 3-5) require.
 */

#ifndef DRAMCTRL_TRAFFICGEN_DRAM_GEN_H
#define DRAMCTRL_TRAFFICGEN_DRAM_GEN_H

#include <vector>

#include "dram/addr_decoder.hh"
#include "dram/dram_config.hh"
#include "trafficgen/base_gen.hh"

namespace dramctrl {

/** DRAM-aware generator knobs on top of the common ones. */
struct DramGenConfig : GenConfig
{
    /** Organisation of the DRAM behind the controller under test. */
    DRAMOrg org;
    /** Address mapping the controller under test decodes with. */
    AddrMapping mapping = AddrMapping::RoRaBaCoCh;
    /** Sequential bytes per bank visit; clamped to the page size. */
    std::uint64_t strideBytes = 64;
    /** Number of banks the generator cycles over (1..total banks). */
    unsigned numBanksTarget = 1;
};

class DramGen : public BaseGen
{
  public:
    DramGen(Simulator &sim, std::string name, const DramGenConfig &cfg,
            RequestorId id);

    /** The row-hit rate this pattern produces under an open page. */
    double expectedOpenPageHitRate() const;

    void checkpoint(ckpt::Io &io) override;

  protected:
    Addr nextAddr() override;

  private:
    DramGenConfig dcfg_;
    AddrDecoder decoder_;

    unsigned bankCursor_;
    std::uint64_t byteOffset_ = 0;
    std::uint64_t bytesLeftInStride_ = 0;
    std::uint64_t currentRow_ = 0;
    std::vector<std::uint64_t> nextRow_;
};

} // namespace dramctrl

#endif // DRAMCTRL_TRAFFICGEN_DRAM_GEN_H
