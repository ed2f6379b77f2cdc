/**
 * @file
 * Common interface for memory controller models.
 *
 * The validation experiments (Section III) run the event-based model
 * and the cycle-based comparator through identical harnesses; this
 * interface is what those harnesses program against. It also carries
 * the statistics the Micron power model consumes (Section II-G).
 */

#ifndef DRAMCTRL_MEM_MEM_CTRL_IFACE_H
#define DRAMCTRL_MEM_MEM_CTRL_IFACE_H

#include "dram/dram_config.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace dramctrl {

class CmdLogger;

/**
 * The controller-behaviour summary the offline Micron power model needs
 * (Section II-G): activate count, bus utilisation per direction, the
 * time all banks spent precharged, and refresh count, over a window of
 * simulated time.
 */
struct PowerInputs
{
    /** Length of the measurement window in ticks. */
    Tick window = 0;
    double numActs = 0;
    double numPrecharges = 0;
    double numRefreshes = 0;
    /** DRAM bursts actually transferred, per direction. */
    double readBursts = 0;
    double writeBursts = 0;
    /** Ticks during which every bank was precharged. */
    Tick prechargeAllTime = 0;
    /** Ticks spent in precharge power-down (subset of the above). */
    Tick powerDownTime = 0;
    /** Ticks spent in self-refresh (disjoint from powerDownTime). */
    Tick selfRefreshTime = 0;
    /** Fraction of the window the data bus carried read data. */
    double readBusFraction = 0;
    /** Fraction of the window the data bus carried write data. */
    double writeBusFraction = 0;
};

/**
 * Abstract memory controller: one channel, one system-facing port.
 */
class MemCtrlBase : public SimObject
{
  public:
    using SimObject::SimObject;

    /** The system-facing port; bind a crossbar or requestor to it. */
    virtual ResponsePort &port() = 0;

    /** Full parameter set of this controller instance. */
    virtual const DRAMCtrlConfig &config() const = 0;

    /** True when no requests are queued or awaiting response. */
    virtual bool idle() const = 0;

    /** Data-bus utilisation (both directions) over the stats window. */
    virtual double busUtilisation() const = 0;

    /** Achieved bandwidth over the stats window, GByte/s. */
    virtual double achievedBandwidthGBs() const = 0;

    /** Theoretical peak bandwidth of the channel, GByte/s. */
    double
    peakBandwidthGBs() const
    {
        return static_cast<double>(config().org.burstSize()) /
               toSeconds(config().timing.tBURST) / 1e9;
    }

    /** Inputs for the offline power calculation. */
    virtual PowerInputs powerInputs() const = 0;

    /**
     * Requests currently buffered in the controller's queues — the
     * live occupancy the introspection endpoint reports.
     */
    virtual std::size_t queuedRequests() const = 0;

    /** Attach a command logger (nullptr detaches). Both models emit
     * the explicit DRAM command stream they imply. */
    virtual void setCmdLogger(CmdLogger *logger) = 0;
};

} // namespace dramctrl

#endif // DRAMCTRL_MEM_MEM_CTRL_IFACE_H
