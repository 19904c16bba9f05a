// A small discrete-event simulation kernel: a time-ordered event queue with
// stable FIFO ordering for simultaneous events.
//
// Every event carries the sequence number it was scheduled under.  The
// simulator keeps task completions off the heap (DESIGN.md §11): it stamps
// its completion cursor with next_sequence() when it re-plans, and
// precedes() tells it whether the earliest heap event orders before a
// cursor entry — the order the completions would have had as heap events
// scheduled at that moment.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>

#include "workload/trace.hpp"

namespace rmwp {

/// Event payload: a small POD the simulation interprets.
struct Event {
    Time time = 0;
    std::uint32_t kind = 0;     ///< simulation-defined discriminator
    std::uint64_t payload = 0;  ///< simulation-defined data (e.g. a task uid)
};

class EventQueue {
public:
    /// Schedule an event; events at equal times pop in insertion order —
    /// the tie-break that makes runs deterministic when, e.g., a fault
    /// onset coincides with an arrival (arrivals are scheduled first, so
    /// the arrival is decided under the pre-fault health).  `time` must be
    /// a number and must not lie before the last dispatched event.
    void schedule(Time time, std::uint32_t kind, std::uint64_t payload);

    [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }

    /// Pop the earliest event.  Requires !empty().
    [[nodiscard]] Event pop();

    /// Time of the earliest event.  Requires !empty().
    [[nodiscard]] Time next_time() const;

    /// The earliest event without popping it.  Requires !empty().  The
    /// reference is invalidated by the next schedule/pop.  Lets the
    /// dispatcher coalesce runs of simultaneous same-kind events.
    [[nodiscard]] const Event& peek() const;

    /// The sequence number the next schedule() call will be given.
    [[nodiscard]] std::uint64_t next_sequence() const noexcept { return next_sequence_; }

    /// Whether the earliest event orders strictly before an event at `time`
    /// scheduled under `sequence`.  Requires !empty().
    [[nodiscard]] bool precedes(Time time, std::uint64_t sequence) const;

    /// Record that an event kept outside the queue was dispatched at `time`:
    /// dispatch stays monotone and the past stays sealed across both.
    void mark_dispatched(Time time);

    [[nodiscard]] std::size_t scheduled_count() const noexcept { return next_sequence_; }

private:
    struct Entry {
        Event event;
        std::uint64_t sequence = 0;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.event.time != b.event.time) return a.event.time > b.event.time;
            return a.sequence > b.sequence;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
    std::uint64_t next_sequence_ = 0;
    /// Dispatch horizon: no event may be scheduled before it, and
    /// dispatches are monotone in time (the tie-break keeps equal times in
    /// FIFO order).
    Time last_popped_time_ = std::numeric_limits<Time>::min();
};

} // namespace rmwp
