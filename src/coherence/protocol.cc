#include "coherence/protocol.hh"

#include "sim/log.hh"

namespace tsoper
{

ProtocolHooks CoherenceProtocol::defaultHooks_;

void
ProtocolHooks::addStoreWaiter(CoreId core, LineAddr line,
                              InlineCallback retry)
{
    (void)core; (void)line; (void)retry;
    tsoper_panic("addStoreWaiter on an engine that never blocks stores");
}

} // namespace tsoper
