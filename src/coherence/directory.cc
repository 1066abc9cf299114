#include "coherence/directory.hh"

#include <utility>

#include "sim/log.hh"

namespace tsoper
{

void
LineSerializer::submit(LineAddr line, Body body)
{
    auto it = lines_.find(line);
    if (it == lines_.end() && !spare_.empty()) {
        // Recycle a released line's node: no allocation per transaction.
        auto node = std::move(spare_.back());
        spare_.pop_back();
        node.key() = line;
        node.mapped().busy = false;
        it = lines_.insert(std::move(node)).position;
    } else if (it == lines_.end()) {
        it = lines_.try_emplace(line).first;
    }
    LineState &state = it->second;
    if (state.busy) {
        state.queue.push(std::move(body));
        return;
    }
    dispatch(line, state, std::move(body));
}

bool
LineSerializer::busy(LineAddr line) const
{
    auto it = lines_.find(line);
    return it != lines_.end() && it->second.busy;
}

void
LineSerializer::dispatch(LineAddr line, LineState &state, Body body)
{
    // state may dangle once the body runs (a body that submits can
    // rehash lines_), so finish with it before calling the body.
    state.busy = true;
    const std::optional<Cycle> freeAt = body(eq_.now());
    if (!freeAt)
        return; // Deferred: a reply handler calls releaseAt().
    tsoper_assert(*freeAt >= eq_.now(), "transaction released in the past");
    eq_.schedule(*freeAt, [this, line] { release(line); });
}

void
LineSerializer::releaseAt(LineAddr line, Cycle at)
{
    auto it = lines_.find(line);
    tsoper_assert(it != lines_.end() && it->second.busy,
                  "deferred release of idle line");
    tsoper_assert(at >= eq_.now(), "deferred release in the past");
    eq_.schedule(at, [this, line] { release(line); });
}

void
LineSerializer::release(LineAddr line)
{
    auto it = lines_.find(line);
    tsoper_assert(it != lines_.end() && it->second.busy,
                  "release of idle line");
    if (it->second.queue.empty()) {
        // Drop idle lines: lines_ stays bounded by in-flight
        // transactions instead of growing with the address footprint.
        spare_.push_back(lines_.extract(it));
        return;
    }
    Body next = it->second.queue.pop();
    dispatch(line, it->second, std::move(next));
}

} // namespace tsoper
