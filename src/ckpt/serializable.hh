/**
 * @file
 * The interface every stateful component implements to take part in
 * checkpointing.
 *
 * Kept deliberately tiny (one forward-declared visitor type, no other
 * includes) so that base headers like sim_object.hh can inherit from
 * Serializable without pulling the checkpoint machinery into every
 * translation unit.
 */

#ifndef DRAMCTRL_CKPT_SERIALIZABLE_H
#define DRAMCTRL_CKPT_SERIALIZABLE_H

namespace dramctrl {
namespace ckpt {

class Io;

/**
 * A component that can write its dynamic state into a checkpoint and
 * later reconstruct it. The contract is strict determinism: after a
 * restore the component must behave byte-for-byte like the instance
 * that was saved, provided it was constructed with an identical
 * configuration (walks record a configuration fingerprint with
 * Io::check(), which fatal()s on a mismatch rather than continue
 * silently).
 *
 * The default walk names nothing, so purely structural objects
 * (ports, crossbars, recorders whose state is diagnostic only) need no
 * code.
 */
class Serializable
{
  public:
    virtual ~Serializable() = default;

    /**
     * Name every piece of dynamic state to @p io, which writes it into
     * the open section when saving and reads it back when restoring.
     * A restore runs on a freshly constructed object (same
     * configuration, nothing scheduled), and event reconstruction is
     * deferred: see Io::event().
     */
    virtual void checkpoint(Io &io) { (void)io; }
};

} // namespace ckpt
} // namespace dramctrl

#endif // DRAMCTRL_CKPT_SERIALIZABLE_H
