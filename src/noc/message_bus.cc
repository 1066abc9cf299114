#include "noc/message_bus.hh"

namespace tsoper
{

MessageBus::MessageBus(EventQueue &eq, Mesh &mesh) : eq_(eq), mesh_(mesh) {}

Cycle
MessageBus::send(int src, int dst, unsigned bytes, Cycle depart,
                 EventQueue::Callback fn)
{
    const Cycle at = mesh_.route(src, dst, bytes, depart);
    eq_.schedule(at, std::move(fn));
    return at;
}

} // namespace tsoper
