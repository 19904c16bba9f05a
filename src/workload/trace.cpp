#include "workload/trace.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rmwp {

Trace::Trace(std::vector<Request> requests) : requests_(std::move(requests)) {
    for (std::size_t i = 0; i < requests_.size(); ++i) {
        RMWP_EXPECT(requests_[i].relative_deadline > 0);
        if (i > 0) RMWP_EXPECT(requests_[i].arrival >= requests_[i - 1].arrival);
    }
}

const Request& Trace::request(std::size_t index) const {
    RMWP_EXPECT(index < requests_.size());
    return requests_[index];
}

double Trace::mean_interarrival() const {
    RMWP_EXPECT(requests_.size() >= 2);
    const auto span = static_cast<double>(requests_.back().arrival - requests_.front().arrival);
    return span / static_cast<double>(requests_.size() - 1);
}

Time Trace::horizon() const noexcept {
    Time latest = 0;
    for (const Request& r : requests_) latest = std::max(latest, r.absolute_deadline());
    return latest;
}

} // namespace rmwp
