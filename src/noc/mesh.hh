/**
 * @file
 * Lightweight 2D-mesh network-on-chip model.
 *
 * Replaces the paper's GARNET network (see DESIGN.md §1): messages are
 * routed XY over a grid of nodes; each directed link transfers
 * linkBytesPerCycle bytes per cycle and serializes competing messages.
 * The model returns, for a message injected at a given cycle, the cycle
 * at which it is delivered, accounting for hop latency, serialization
 * and link contention.
 *
 * Node map (defaults, 4x4 mesh, 8 cores + 8 LLC/dir/MC tiles):
 *   nodes 0..numCores-1          core tiles (row-major from the top)
 *   nodes numCores..numCores+7   LLC bank / directory bank / MC tiles
 */

#ifndef TSOPER_NOC_MESH_HH
#define TSOPER_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

class Mesh
{
  public:
    Mesh(const SystemConfig &cfg, StatsRegistry &stats);

    /** Node id of core @p core's tile. */
    int coreNode(CoreId core) const { return core; }

    /** Node id of LLC/directory bank @p bank's tile. */
    int bankNode(unsigned bank) const { return numCores_ + (int)bank; }

    /** Node id of memory controller @p mc (co-located with bank mc). */
    int mcNode(unsigned mc) const
    {
        return numCores_ + static_cast<int>(mc % banks_);
    }

    /**
     * Route a @p bytes -byte message from @p src to @p dst, injected at
     * cycle @p depart.  Updates per-link contention state (so calls must
     * be made in event order) and returns the delivery cycle.
     */
    Cycle route(int src, int dst, unsigned bytes, Cycle depart);

    /** Contention-free latency between two nodes for @p bytes bytes. */
    Cycle idealLatency(int src, int dst, unsigned bytes) const;

    /** Manhattan hop count between two nodes. */
    unsigned hops(int src, int dst) const;

    unsigned nodes() const { return cols_ * rows_; }

  private:
    struct Link
    {
        Cycle busyUntil = 0;
    };

    /** The links of the XY route from @p src to @p dst, in order. */
    const std::vector<unsigned> &
    routeOf(int src, int dst) const
    {
        return routes_[static_cast<unsigned>(src) * nodes() +
                       static_cast<unsigned>(dst)];
    }

    unsigned cols_;
    unsigned rows_;
    Cycle hopLatency_;
    unsigned linkBytes_;
    int numCores_;
    unsigned banks_;
    std::vector<Link> links_; ///< 4 directed links per node (N,E,S,W).
    std::vector<std::vector<unsigned>> routes_; ///< nodes() x nodes().
    Counter &messages_;
    Counter &bytes_;
    Counter &linkWaitCycles_;
};

} // namespace tsoper

#endif // TSOPER_NOC_MESH_HH
