// Fault injection: a deterministic, seeded schedule of per-resource fault
// events — transient outages (the resource goes offline for an interval and
// recovers), permanent failures (offline until the end of the run), and
// throttle intervals (effective WCETs inflated by a factor, e.g. thermal
// capping).
//
// Faults strike *physical* cores: on DVFS platforms every operating point
// of the struck core is affected together.  The schedule is pure data; the
// simulator turns each onset/recovery into a discrete event, maintains the
// resulting PlatformHealth mask, and triggers a fault-rescue RM activation
// whenever capacity is lost (see sim/simulator.cpp and DESIGN.md §7).
#pragma once

#include <cstdint>
#include <vector>

#include "platform/health.hpp"
#include "platform/platform.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace rmwp {

/// The numeric order is part of the observability contract (DESIGN.md §10):
/// fault_onset/fault_recovery TraceEvents carry static_cast<uint32_t>(kind)
/// in their aux field and the Chrome exporter's span names index by it
/// (src/obs/export.cpp) — append new kinds at the end only.
enum class FaultKind {
    outage,    ///< resource offline during [start, end), then recovers
    permanent, ///< resource offline from `start` forever (end = kNever)
    throttle,  ///< effective WCETs on the resource x factor during [start, end)
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// One injected fault on one physical resource.
struct FaultEvent {
    FaultKind kind = FaultKind::outage;
    ResourceId resource = 0; ///< physical core id
    Time start = 0;
    Time end = kNever;   ///< recovery instant (exclusive)
    double factor = 1.0;     ///< WCET multiplier while active (throttle only)

    /// Whether the fault is in effect at time t (half-open interval).
    [[nodiscard]] bool active_at(Time t) const noexcept { return start <= t && t < end; }
    [[nodiscard]] bool takes_offline() const noexcept { return kind != FaultKind::throttle; }
};

/// Generation knobs, in milliseconds.  Rates are expected events per
/// physical resource per 1000 ms, drawn as Poisson processes; durations
/// (ms) are exponential.  All zero (the default) means no
/// faults, so fault-free configurations are bit-identical to the seed.
struct FaultParams {
    double outage_rate = 0.0;
    double outage_duration_mean = 40.0;
    /// Per-resource probability of one permanent failure somewhere in the
    /// horizon (uniform onset over the middle 80% of the horizon).
    double permanent_prob = 0.0;
    double throttle_rate = 0.0;
    double throttle_duration_mean = 60.0;
    double throttle_factor_min = 1.5;
    double throttle_factor_max = 3.0;
    /// Minimum number of physical cores the generator keeps online at every
    /// instant (outages that would sink below this are dropped).  At least 1.
    std::size_t min_online = 1;

    [[nodiscard]] bool any() const noexcept {
        return outage_rate > 0.0 || permanent_prob > 0.0 || throttle_rate > 0.0;
    }
};

/// An immutable, time-sorted set of fault events for one run.
class FaultSchedule {
public:
    FaultSchedule() = default;
    /// Validates: resources are physical ids of some platform (checked at
    /// use), intervals well-formed, throttle factors >= 1.
    explicit FaultSchedule(std::vector<FaultEvent> events);

    [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
    [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept { return events_; }

    /// The health mask in effect at time t: a resource is offline while any
    /// outage/permanent event covers t, and throttled by the largest factor
    /// of the throttle events covering t.
    [[nodiscard]] PlatformHealth health_at(const Platform& platform, Time t) const;

private:
    std::vector<FaultEvent> events_; ///< sorted by (start, resource)
};

/// Deterministically generate a fault schedule over [0, horizon) from the
/// given seed stream.  Guarantees at least params.min_online physical cores
/// online at every instant.
[[nodiscard]] FaultSchedule generate_fault_schedule(const Platform& platform,
                                                    const FaultParams& params, Time horizon,
                                                    Rng& rng);

} // namespace rmwp
