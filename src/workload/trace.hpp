// Request traces: a trace is a time-ordered stream of requests, each
// carrying arrival time, task type, and relative deadline (Sec 5.1's three
// fields).
#pragma once

#include <cstddef>
#include <vector>

#include "util/time.hpp"
#include "workload/task_type.hpp"

namespace rmwp {

/// One incoming request req_j.
struct Request {
    Time arrival = 0;           ///< absolute arrival time s_j
    TaskTypeId type = 0;        ///< which task the request triggers
    Time relative_deadline = 0; ///< d_j, relative to arrival

    [[nodiscard]] Time absolute_deadline() const noexcept { return arrival + relative_deadline; }
};

/// A time-ordered stream of requests.
class Trace {
public:
    Trace() = default;
    explicit Trace(std::vector<Request> requests);

    [[nodiscard]] std::size_t size() const noexcept { return requests_.size(); }
    [[nodiscard]] bool empty() const noexcept { return requests_.empty(); }
    [[nodiscard]] const Request& request(std::size_t index) const;
    [[nodiscard]] const std::vector<Request>& requests() const noexcept { return requests_; }

    /// Mean of the interarrival gaps in ticks.  Requires size() >= 2.
    [[nodiscard]] double mean_interarrival() const;

    /// Latest absolute deadline in the trace; 0 for an empty trace.
    [[nodiscard]] Time horizon() const noexcept;

    [[nodiscard]] auto begin() const noexcept { return requests_.begin(); }
    [[nodiscard]] auto end() const noexcept { return requests_.end(); }

private:
    std::vector<Request> requests_;
};

} // namespace rmwp
