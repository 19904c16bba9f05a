#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rmwp {
namespace {

/// Exponential draw with the given mean (inverse-CDF on a uniform).
double exponential(Rng& rng, double mean) { return -mean * std::log1p(-rng.uniform01()); }

/// Physical core ids of the platform, ascending.
std::vector<ResourceId> physical_ids(const Platform& platform) {
    std::vector<ResourceId> ids;
    for (const Resource& resource : platform) ids.push_back(resource.physical());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

/// Number of distinct physical cores (other than `self`) offline at time t
/// under the already accepted events.
std::size_t offline_others_at(const std::vector<FaultEvent>& accepted, ResourceId self, Time t) {
    std::vector<ResourceId> offline;
    for (const FaultEvent& event : accepted) {
        if (!event.takes_offline() || event.resource == self || !event.active_at(t)) continue;
        offline.push_back(event.resource);
    }
    std::sort(offline.begin(), offline.end());
    offline.erase(std::unique(offline.begin(), offline.end()), offline.end());
    return offline.size();
}

/// Whether taking `candidate.resource` offline during the candidate's span
/// would ever leave fewer than `min_online` physical cores up.
bool violates_min_online(const std::vector<FaultEvent>& accepted, const FaultEvent& candidate,
                         std::size_t physical_count, std::size_t min_online) {
    // The offline count is piecewise constant; its breakpoints inside the
    // candidate's span are the accepted events' starts and ends.
    std::vector<Time> probes{candidate.start};
    for (const FaultEvent& event : accepted) {
        if (!event.takes_offline()) continue;
        if (event.start > candidate.start && event.start < candidate.end)
            probes.push_back(event.start);
        if (event.end > candidate.start && event.end < candidate.end) probes.push_back(event.end);
    }
    for (const Time t : probes) {
        const std::size_t offline = offline_others_at(accepted, candidate.resource, t) + 1;
        if (physical_count - offline < min_online) return true;
    }
    return false;
}

void sort_events(std::vector<FaultEvent>& events) {
    std::sort(events.begin(), events.end(), [](const FaultEvent& a, const FaultEvent& b) {
        if (a.start != b.start) return a.start < b.start;
        if (a.resource != b.resource) return a.resource < b.resource;
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    });
}

} // namespace

const char* to_string(FaultKind kind) noexcept {
    switch (kind) {
    case FaultKind::outage: return "outage";
    case FaultKind::permanent: return "permanent";
    case FaultKind::throttle: return "throttle";
    }
    return "unknown";
}

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events) : events_(std::move(events)) {
    for (const FaultEvent& event : events_) {
        RMWP_EXPECT(event.start >= 0);
        RMWP_EXPECT(event.end > event.start);
        RMWP_EXPECT(event.kind != FaultKind::throttle || event.factor >= 1.0);
        RMWP_EXPECT(event.kind != FaultKind::permanent || event.end == kNever);
    }
    sort_events(events_);
}

PlatformHealth FaultSchedule::health_at(const Platform& platform, Time t) const {
    PlatformHealth health;
    for (const FaultEvent& event : events_) {
        if (!event.active_at(t)) continue;
        if (event.takes_offline()) {
            health.set_online(platform, event.resource, false);
        } else if (event.factor > health.throttle(event.resource)) {
            // Overlapping throttles: the harshest factor wins.
            health.set_throttle(platform, event.resource, event.factor);
        }
    }
    return health;
}

FaultSchedule generate_fault_schedule(const Platform& platform, const FaultParams& params,
                                      Time horizon, Rng& rng) {
    RMWP_EXPECT(params.min_online >= 1);
    RMWP_EXPECT(params.throttle_factor_min >= 1.0);
    RMWP_EXPECT(params.throttle_factor_max >= params.throttle_factor_min);
    if (!params.any() || horizon <= 0) return FaultSchedule{};

    // Draws are in ms; onsets round to the nearest tick, durations (>= 1 us) up.
    const auto gap = [&rng](double mean) {
        return to_ticks(exponential(rng, mean), TickRounding::nearest);
    };
    const auto length = [&rng](double mean) {
        return to_ticks(std::max(1e-3, exponential(rng, mean)), TickRounding::up);
    };

    const std::vector<ResourceId> cores = physical_ids(platform);
    std::vector<FaultEvent> accepted;

    // Outages and permanent failures first (they constrain each other via
    // min_online); resources in ascending id order for determinism.
    for (const ResourceId core : cores) {
        if (params.outage_rate > 0.0) {
            const double gap_mean = 1000.0 / params.outage_rate;
            Time t = gap(gap_mean);
            while (t < horizon) {
                FaultEvent event;
                event.kind = FaultKind::outage;
                event.resource = core;
                event.start = t;
                event.end = t + length(params.outage_duration_mean);
                if (!violates_min_online(accepted, event, cores.size(), params.min_online))
                    accepted.push_back(event);
                // Next onset only after this outage would have ended, so one
                // resource's outages never overlap each other.
                t = event.end + gap(gap_mean);
            }
        }
        if (params.permanent_prob > 0.0 && rng.bernoulli(params.permanent_prob)) {
            FaultEvent event;
            event.kind = FaultKind::permanent;
            event.resource = core;
            event.start = scale_down(horizon, rng.uniform(0.1, 0.9));
            if (!violates_min_online(accepted, event, cores.size(), params.min_online))
                accepted.push_back(event);
        }
    }

    // Throttle intervals are independent of the offline budget.
    for (const ResourceId core : cores) {
        if (params.throttle_rate <= 0.0) continue;
        const double gap_mean = 1000.0 / params.throttle_rate;
        Time t = gap(gap_mean);
        while (t < horizon) {
            FaultEvent event;
            event.kind = FaultKind::throttle;
            event.resource = core;
            event.start = t;
            event.end = t + length(params.throttle_duration_mean);
            event.factor = rng.uniform(params.throttle_factor_min, params.throttle_factor_max);
            accepted.push_back(event);
            t = event.end + gap(gap_mean);
        }
    }

    sort_events(accepted);
    // Schedule-wide postcondition (independent of the incremental filter
    // above): at every onset instant — the only times the offline count can
    // grow — at least min_online distinct physical cores remain up.
    for (const FaultEvent& event : accepted) {
        if (!event.takes_offline()) continue;
        const std::size_t offline = offline_others_at(accepted, event.resource, event.start) + 1;
        RMWP_ENSURE(cores.size() - offline >= params.min_online);
    }
    return FaultSchedule(std::move(accepted));
}

} // namespace rmwp
