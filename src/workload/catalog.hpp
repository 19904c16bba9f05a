// The task-type catalog and its random generation per Sec 5.1:
//  * 100 task types;
//  * per-CPU WCET ~ Gaussian(40, 9^2), per-CPU energy ~ Gaussian(15, 3^2);
//  * GPU WCET / energy = the CPU averages divided by a random factor in
//    [2, 10];
//  * migration overhead (time and energy) a random fraction in [0.1, 0.2]
//    of the resource-averaged WCET / energy of the type.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "util/rng.hpp"
#include "workload/task_type.hpp"

namespace rmwp {

/// Knobs for generate_catalog(); defaults reproduce Sec 5.1.
struct CatalogParams {
    std::size_t type_count = 100;
    double cpu_wcet_mean = 40.0;
    double cpu_wcet_stddev = 9.0;
    double cpu_energy_mean = 15.0;
    double cpu_energy_stddev = 3.0;
    double gpu_divisor_min = 2.0;
    double gpu_divisor_max = 10.0;
    double migration_fraction_min = 0.1;
    double migration_fraction_max = 0.2;
    /// Extension knob (0 in the paper): fraction of types that cannot run on
    /// non-preemptable resources (footnote 1's "dummy values" path).
    double gpu_incompatible_fraction = 0.0;
    /// Extension knob (0 in the paper): fraction of a task's nominal energy
    /// that is *static* (leakage) rather than dynamic.  At DVFS level f the
    /// per-task energy becomes e_nom * ((1-s) * f^2 + s / f): dynamic energy
    /// shrinks quadratically with frequency while the static share grows
    /// with the longer runtime — the classic race-to-idle-vs-slow-down
    /// trade-off, which moves the energy-optimal operating point away from
    /// the slowest level.
    double static_energy_fraction = 0.0;

    void validate() const;
};

/// Immutable set of task types sharing one platform's resource count.
class Catalog {
public:
    explicit Catalog(std::vector<TaskType> types);

    [[nodiscard]] std::size_t size() const noexcept { return types_.size(); }
    [[nodiscard]] const TaskType& type(TaskTypeId id) const;
    [[nodiscard]] const std::vector<TaskType>& types() const noexcept { return types_; }
    [[nodiscard]] std::size_t resource_count() const noexcept {
        return types_.front().resource_count();
    }

    [[nodiscard]] auto begin() const noexcept { return types_.begin(); }
    [[nodiscard]] auto end() const noexcept { return types_.end(); }

private:
    std::vector<TaskType> types_;
};

/// Generate a catalog for `platform` per Sec 5.1.  Deterministic in `rng`.
[[nodiscard]] Catalog generate_catalog(const Platform& platform, const CatalogParams& params,
                                       Rng& rng);

/// Generate an *islands* catalog: physical resources are assigned
/// round-robin (in id order) to `islands` disjoint resource islands, and
/// each task type executes only within island `type_id % islands` — the
/// Sec 5.1 magnitudes, confined.  The executability relation then has
/// `islands` connected components, the resource groups admission solves
/// one by one (DESIGN.md §15).  The split decides the same as the whole
/// solve; for Algorithm 1 it saves little by itself, and the batch loop
/// gains by reusing the verdicts of groups an admission left untouched.
/// Every island must receive at least one CPU core.  Deterministic in
/// `rng`; `islands == 1` draws differently from generate_catalog (only
/// island CPUs are sampled) but has the same distribution shape.
[[nodiscard]] Catalog generate_partitioned_catalog(const Platform& platform,
                                                   const CatalogParams& params,
                                                   std::size_t islands, Rng& rng);

} // namespace rmwp
