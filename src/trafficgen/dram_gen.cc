#include "trafficgen/dram_gen.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"
#include "sim/logging.hh"

namespace dramctrl {

DramGen::DramGen(Simulator &sim, std::string name,
                 const DramGenConfig &cfg, RequestorId id)
    : BaseGen(sim, std::move(name), cfg, id), dcfg_(cfg),
      decoder_(cfg.org, cfg.mapping),
      bankCursor_(cfg.numBanksTarget - 1),
      nextRow_(cfg.org.totalBanks(), 0)
{
    if (dcfg_.numBanksTarget == 0 ||
        dcfg_.numBanksTarget > dcfg_.org.totalBanks())
        fatal("dram-aware generator '%s': %u banks targeted but the "
              "DRAM has %u",
              this->name().c_str(), dcfg_.numBanksTarget,
              dcfg_.org.totalBanks());
    dcfg_.strideBytes =
        std::min(dcfg_.strideBytes, dcfg_.org.rowBufferSize);
    if (dcfg_.strideBytes % dcfg_.blockSize != 0 ||
        dcfg_.strideBytes < dcfg_.blockSize)
        fatal("dram-aware generator '%s': stride %llu not a multiple "
              "of the block size %u",
              this->name().c_str(),
              static_cast<unsigned long long>(dcfg_.strideBytes),
              dcfg_.blockSize);
}

double
DramGen::expectedOpenPageHitRate() const
{
    double bursts = static_cast<double>(dcfg_.strideBytes) /
                    static_cast<double>(dcfg_.org.burstSize());
    bursts = std::max(bursts, 1.0);
    return (bursts - 1.0) / bursts;
}

namespace {

std::uint64_t
dramGenShapeHash(const DramGenConfig &cfg)
{
    return ckpt::fnv1a(formatString(
        "dramgen:%u:%u:%u:%u:%u:%llu:%llu:%u:%llu:%u",
        cfg.org.burstLength, cfg.org.deviceBusWidth,
        cfg.org.devicesPerRank, cfg.org.ranksPerChannel,
        cfg.org.banksPerRank,
        static_cast<unsigned long long>(cfg.org.rowBufferSize),
        static_cast<unsigned long long>(cfg.org.channelCapacity),
        static_cast<unsigned>(cfg.mapping),
        static_cast<unsigned long long>(cfg.strideBytes),
        cfg.numBanksTarget));
}

} // namespace

void
DramGen::checkpoint(ckpt::Io &io)
{
    BaseGen::checkpoint(io);
    io.check("dramCfgHash", dramGenShapeHash(dcfg_),
             "dram-aware generator configuration");
    io.u64("bankCursor", bankCursor_);
    io.u64("byteOffset", byteOffset_);
    io.u64("bytesLeftInStride", bytesLeftInStride_);
    io.u64("currentRow", currentRow_);
    io.lanes("nextRow", nextRow_);
}

Addr
DramGen::nextAddr()
{
    if (bytesLeftInStride_ == 0) {
        // Move to the next targeted bank and open a fresh row there, so
        // strides never revisit rows and the hit rate is set purely by
        // the stride length.
        bankCursor_ = (bankCursor_ + 1) % dcfg_.numBanksTarget;
        currentRow_ = nextRow_[bankCursor_];
        nextRow_[bankCursor_] =
            (nextRow_[bankCursor_] + 1) % dcfg_.org.rowsPerBank();
        byteOffset_ = 0;
        bytesLeftInStride_ = dcfg_.strideBytes;
    }

    DRAMAddr da;
    da.rank = bankCursor_ / dcfg_.org.banksPerRank;
    da.bank = bankCursor_ % dcfg_.org.banksPerRank;
    da.row = currentRow_;
    da.col = byteOffset_ / dcfg_.org.burstSize();

    Addr dense = decoder_.encode(da) +
                 byteOffset_ % dcfg_.org.burstSize();
    byteOffset_ += dcfg_.blockSize;
    bytesLeftInStride_ -= dcfg_.blockSize;

    return dcfg_.startAddr + dense;
}

} // namespace dramctrl
