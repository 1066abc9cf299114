/**
 * @file
 * MessageBus: the explicit cross-tile message path.
 *
 * Every interaction between mesh tiles — core requests to directory
 * banks, grants and forwards back to cores, AGB ingress, writeback
 * traffic — flows through this choke point instead of ad-hoc
 * `mesh.route(...)` + `eq.schedule(...)` pairs scattered through the
 * components, so per-layer NoC accounting has one place to hook into
 * (DESIGN.md, "Message bus and transaction legs").  The bus offers
 * exactly two shapes:
 *
 *  - send():    a timestamped message event — route through the mesh
 *               (accounting link contention) and run a continuation
 *               on the destination tile at the arrival cycle;
 *  - arrival(): a routed leg whose effect is folded into an enclosing
 *               transaction's continuation (the protocols' timing
 *               model commits state at directory dispatch and only
 *               needs the legs' delivery cycles).  The route still
 *               occupies links, so traffic accounting is unchanged.
 *
 * Each component constructs its bus over the shared Mesh and the
 * System's one event queue, so send() is exactly a route followed by
 * a schedule at the delivery cycle.
 */

#ifndef TSOPER_NOC_MESSAGE_BUS_HH
#define TSOPER_NOC_MESSAGE_BUS_HH

#include <utility>

#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tsoper
{

class MessageBus
{
  public:
    MessageBus(EventQueue &eq, Mesh &mesh) : eq_(eq), mesh_(mesh) {}

    /**
     * Timestamped message: route @p bytes from tile @p src to tile
     * @p dst departing at @p depart (>= now), and run @p fn at the
     * delivery cycle.  @p fn is forwarded to EventQueue::schedule, so
     * it is built once, in its event slot.  @return the delivery cycle.
     */
    template <typename F>
    Cycle
    send(int src, int dst, unsigned bytes, Cycle depart, F &&fn)
    {
        const Cycle at = mesh_.route(src, dst, bytes, depart);
        eq_.schedule(at, std::forward<F>(fn));
        return at;
    }

    /** send() departing immediately. */
    template <typename F>
    Cycle
    send(int src, int dst, unsigned bytes, F &&fn)
    {
        return send(src, dst, bytes, eq_.now(), std::forward<F>(fn));
    }

    /** send() of a request's reply leg to @p core: its arrival runs
     *  @p done(arrival cycle, @p value...).  @return the arrival cycle. */
    template <typename Done, typename... Value>
    Cycle
    reply(int src, CoreId core, unsigned bytes, Cycle depart, Done done,
          Value... value)
    {
        return send(src, coreNode(core), bytes, depart,
                    [this, value..., done = std::move(done)]() mutable {
                        done(eq_.now(), value...);
                    });
    }

    /**
     * Routed leg without its own event: returns the delivery cycle of
     * @p bytes from @p src to @p dst departing at @p depart, updating
     * link contention.  For legs folded into a transaction
     * continuation; the caller owns scheduling the effect no earlier
     * than the returned cycle.
     */
    Cycle
    arrival(int src, int dst, unsigned bytes, Cycle depart)
    {
        return mesh_.route(src, dst, bytes, depart);
    }

    // --- Tile-name helpers (delegate to the mesh's node map) -------
    int coreNode(CoreId core) const { return mesh_.coreNode(core); }
    int bankNode(unsigned bank) const { return mesh_.bankNode(bank); }
    int mcNode(unsigned mc) const { return mesh_.mcNode(mc); }

    Cycle
    idealLatency(int src, int dst, unsigned bytes) const
    {
        return mesh_.idealLatency(src, dst, bytes);
    }

  private:
    EventQueue &eq_;
    Mesh &mesh_;
};

} // namespace tsoper

#endif // TSOPER_NOC_MESSAGE_BUS_HH
