/**
 * @file
 * Per-bank DRAM command queues for the cycle-based controller.
 *
 * DRAMSim2's structure: a transaction is decomposed into explicit DRAM
 * commands (ACT, PRE, RD, WR) which wait in a per-rank-per-bank queue;
 * commands within a bank issue strictly in order, and the controller
 * arbitrates across banks each cycle. The paper's event-based model
 * deliberately omits this split (Section II-A) — keeping it here is
 * what makes the comparator representative.
 */

#ifndef DRAMCTRL_CYCLESIM_COMMAND_QUEUE_H
#define DRAMCTRL_CYCLESIM_COMMAND_QUEUE_H

#include <cstdint>
#include <vector>

#include "cyclesim/bank_state.hh"
#include "sim/logging.hh"
#include "sim/ring_buffer.hh"
#include "sim/types.hh"

namespace dramctrl {
namespace cyclesim {

enum class CmdType : std::uint8_t { Act, Pre, Read, Write };

/** A forward-declared controller-internal transaction. */
struct CycleTransaction;

/** One explicit DRAM command. */
struct Command
{
    CmdType type;
    unsigned rank;
    unsigned bank;
    std::uint64_t row;
    std::uint64_t col;
    /** Column command carries an auto-precharge (closed page). */
    bool autoPrecharge = false;
    /** The transaction a column command completes a burst of. */
    CycleTransaction *trans = nullptr;
};

/**
 * The set of per-bank FIFO command queues with a bounded depth.
 *
 * Each queue is a fixed ring sized once at construction, so the
 * cycle-by-cycle push/pop churn never allocates. The rings hold one
 * slot beyond the nominal depth: repairQueueHeads() may push a healing
 * precharge/activate in front of an already-full queue.
 */
class CommandQueue
{
  public:
    CommandQueue(unsigned ranks, unsigned banks, unsigned depth);

    /**
     * Commands flat bank @p flat (rank * banks + bank) can still take,
     * clamped at 0 while a head repair occupies the spare slot.
     */
    unsigned
    freeSlots(unsigned flat) const
    {
        const std::size_t used = at(flat).size();
        return used < depth_ ? depth_ - static_cast<unsigned>(used) : 0;
    }

    void push(const Command &cmd);

    /** Queue of flat bank index @p flat (rank * banks + bank). */
    RingBuffer<Command> &
    at(unsigned flat)
    {
        DC_ASSERT(flat < queues_.size(), "bank %u out of range", flat);
        return queues_[flat];
    }

    const RingBuffer<Command> &
    at(unsigned flat) const
    {
        DC_ASSERT(flat < queues_.size(), "bank %u out of range", flat);
        return queues_[flat];
    }

    RingBuffer<Command> &
    at(unsigned rank, unsigned bank)
    {
        return at(rank * banks_ + bank);
    }

    const RingBuffer<Command> &
    at(unsigned rank, unsigned bank) const
    {
        return at(rank * banks_ + bank);
    }

    bool empty() const;
    std::size_t totalSize() const;

    unsigned numRanks() const { return ranks_; }
    unsigned numBanks() const { return banks_; }

  private:
    unsigned ranks_;
    unsigned banks_;
    unsigned depth_;
    std::vector<RingBuffer<Command>> queues_;
};

} // namespace cyclesim
} // namespace dramctrl

#endif // DRAMCTRL_CYCLESIM_COMMAND_QUEUE_H
