#include "core/engine.hh"

#include "sim/log.hh"

namespace tsoper
{

void
PersistEngine::addStallWaiter(InlineCallback resume)
{
    (void)resume;
    tsoper_panic("addStallWaiter on an engine that never stalls cores");
}

} // namespace tsoper
