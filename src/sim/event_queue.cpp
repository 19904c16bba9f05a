#include "sim/event_queue.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rmwp {

void EventQueue::schedule(Time time, std::uint32_t kind, std::uint64_t payload) {
    RMWP_EXPECT(!std::isnan(time));
    // Scheduling into the dispatched past would silently reorder the
    // simulation (the event would fire "now" regardless of its timestamp).
    RMWP_EXPECT(time >= last_popped_time_);
    queue_.push(Entry{Event{time, kind, payload}, next_sequence_++});
}

Event EventQueue::pop() {
    RMWP_EXPECT(!queue_.empty());
    const Event event = queue_.top().event;
    queue_.pop();
    mark_dispatched(event.time);
    return event;
}

Time EventQueue::next_time() const {
    RMWP_EXPECT(!queue_.empty());
    return queue_.top().event.time;
}

const Event& EventQueue::peek() const {
    RMWP_EXPECT(!queue_.empty());
    return queue_.top().event;
}

bool EventQueue::precedes(Time time, std::uint64_t sequence) const {
    RMWP_EXPECT(!queue_.empty());
    const Entry& top = queue_.top();
    if (top.event.time != time) return top.event.time < time;
    return top.sequence < sequence;
}

void EventQueue::mark_dispatched(Time time) {
    // Dispatch is monotone in time; simultaneous events keep their
    // insertion order (deterministic fault-onset vs. arrival interleaving).
    RMWP_ENSURE(time >= last_popped_time_);
    last_popped_time_ = time;
}

} // namespace rmwp
