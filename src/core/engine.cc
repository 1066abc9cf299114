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

void
PersistEngine::addSyncWaiter(CoreId core, InlineCallback retry)
{
    (void)core; (void)retry;
    tsoper_panic("addSyncWaiter on an engine that never blocks syncs");
}

} // namespace tsoper
