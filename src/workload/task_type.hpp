// A task type tau_j as defined in Sec 2: per-resource WCET c_{j,i}, average
// energy e_{j,i}, and per-resource-pair migration overheads cm_{j,k,i} /
// em_{j,k,i}.  Resources on which the type cannot execute carry
// "dummy values" (the paper's footnote 1): +infinity in the millisecond
// tables a type is built from, kNever once converted to ticks, so that any
// feasibility comparison naturally rejects them.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "platform/platform.hpp"
#include "util/time.hpp"

namespace rmwp {

/// Index of a task type within its Catalog.
using TaskTypeId = std::size_t;

/// Sentinel WCET/energy for "not executable on this resource".
inline constexpr double kNotExecutable = std::numeric_limits<double>::infinity();

/// Immutable description of one task type.
class TaskType {
public:
    /// wcet/energy are indexed by ResourceId; cm/em are [from][to] matrices.
    /// All four containers must agree with the same resource count N, and a
    /// type must be executable on at least one resource.  Times are given
    /// in milliseconds and rounded up to whole ticks here.
    TaskType(TaskTypeId id, std::vector<double> wcet, std::vector<double> energy,
             std::vector<std::vector<double>> migration_time,
             std::vector<std::vector<double>> migration_energy);

    [[nodiscard]] TaskTypeId id() const noexcept { return id_; }
    [[nodiscard]] std::size_t resource_count() const noexcept { return wcet_.size(); }

    /// WCET c_{j,i} in ticks; kNever if not executable on i.
    [[nodiscard]] Time wcet(ResourceId i) const;
    /// Average energy e_{j,i}; +infinity if not executable on i.
    [[nodiscard]] double energy(ResourceId i) const;
    [[nodiscard]] bool executable_on(ResourceId i) const;

    /// Migration time overhead cm_{j,k,i} in ticks for moving from k to i
    /// (0 if k==i).
    [[nodiscard]] Time migration_time(ResourceId from, ResourceId to) const;
    /// Migration energy overhead em_{j,k,i} (0 if k==i).
    [[nodiscard]] double migration_energy(ResourceId from, ResourceId to) const;

    /// Mean WCET over the resources the type can execute on (rounded down).
    [[nodiscard]] Time mean_wcet() const noexcept { return mean_wcet_; }
    /// Mean energy over the resources the type can execute on.
    [[nodiscard]] double mean_energy() const noexcept { return mean_energy_; }
    /// Smallest WCET over executable resources.
    [[nodiscard]] Time min_wcet() const noexcept { return min_wcet_; }
    /// Smallest energy over executable resources.
    [[nodiscard]] double min_energy() const noexcept { return min_energy_; }

    /// Ids of the resources this type can execute on.
    [[nodiscard]] const std::vector<ResourceId>& executable_resources() const noexcept {
        return executable_;
    }

private:
    TaskTypeId id_;
    std::vector<Time> wcet_;
    std::vector<double> energy_;
    std::vector<std::vector<Time>> migration_time_;
    std::vector<std::vector<double>> migration_energy_;
    std::vector<ResourceId> executable_;
    Time mean_wcet_ = 0;
    double mean_energy_ = 0.0;
    Time min_wcet_ = 0;
    double min_energy_ = 0.0;
};

} // namespace rmwp
