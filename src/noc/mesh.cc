#include "noc/mesh.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

Mesh::Mesh(const SystemConfig &cfg, StatsRegistry &stats)
    : cols_(cfg.meshCols), rows_(cfg.meshRows), hopLatency_(cfg.hopLatency),
      linkBytes_(cfg.linkBytesPerCycle),
      numCores_(static_cast<int>(cfg.numCores)), banks_(cfg.llcBanks),
      links_(cols_ * rows_ * 4), routes_(nodes() * nodes()),
      messages_(stats.counter("noc.messages")),
      bytes_(stats.counter("noc.bytes")),
      linkWaitCycles_(stats.counter("noc.link_wait_cycles"))
{
    tsoper_assert(cols_ >= 1 && rows_ >= 1);
    // XY routing: move along the row first, then along the column.
    // Each hop uses the link leaving its node in the hop's direction.
    enum Dir : unsigned { North, East, South, West };
    for (unsigned src = 0; src < nodes(); ++src) {
        for (unsigned dst = 0; dst < nodes(); ++dst) {
            std::vector<unsigned> &route = routes_[src * nodes() + dst];
            unsigned col = src % cols_;
            unsigned row = src / cols_;
            const auto hop = [&](Dir dir) {
                route.push_back((row * cols_ + col) * 4 + dir);
            };
            for (; col < dst % cols_; ++col)
                hop(East);
            for (; col > dst % cols_; --col)
                hop(West);
            for (; row < dst / cols_; ++row)
                hop(South);
            for (; row > dst / cols_; --row)
                hop(North);
        }
    }
}

unsigned
Mesh::hops(int src, int dst) const
{
    return static_cast<unsigned>(routeOf(src, dst).size());
}

Cycle
Mesh::idealLatency(int src, int dst, unsigned bytes) const
{
    if (src == dst)
        return 1;
    const Cycle ser = (bytes + linkBytes_ - 1) / linkBytes_;
    return hops(src, dst) * hopLatency_ + ser;
}

Cycle
Mesh::route(int src, int dst, unsigned bytes, Cycle depart)
{
    messages_.inc();
    bytes_.inc(bytes);
    if (src == dst)
        return depart + 1;
    const Cycle ser = (bytes + linkBytes_ - 1) / linkBytes_;
    Cycle at = depart;
    for (unsigned l : routeOf(src, dst)) {
        Link &link = links_[l];
        const Cycle start = std::max(at, link.busyUntil);
        linkWaitCycles_.inc(start - at);
        // The link is occupied for the serialization time; the head of
        // the message reaches the next router after the hop latency.
        link.busyUntil = start + ser;
        at = start + hopLatency_;
    }
    // Account for the tail of the message (serialization) once.
    trace::span(trace::Event::NocMsg, invalidCore, depart, at + ser,
                (static_cast<std::uint64_t>(static_cast<unsigned>(src))
                 << 32) |
                    static_cast<unsigned>(dst),
                bytes);
    return at + ser;
}

} // namespace tsoper
