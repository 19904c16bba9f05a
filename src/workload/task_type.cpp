#include "workload/task_type.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rmwp {

TaskType::TaskType(TaskTypeId id, std::vector<double> wcet, std::vector<double> energy,
                   std::vector<std::vector<double>> migration_time,
                   std::vector<std::vector<double>> migration_energy)
    : id_(id), energy_(std::move(energy)), migration_energy_(std::move(migration_energy)) {
    const std::size_t n = wcet.size();
    RMWP_EXPECT(n > 0);
    RMWP_EXPECT(energy_.size() == n);
    RMWP_EXPECT(migration_time.size() == n);
    RMWP_EXPECT(migration_energy_.size() == n);
    migration_time_.assign(n, std::vector<Time>(n, 0));
    for (std::size_t from = 0; from < n; ++from) {
        RMWP_EXPECT(migration_time[from].size() == n);
        RMWP_EXPECT(migration_energy_[from].size() == n);
        RMWP_EXPECT(migration_time[from][from] == 0.0);
        RMWP_EXPECT(migration_energy_[from][from] == 0.0);
        for (std::size_t to = 0; to < n; ++to)
            if (std::isfinite(migration_time[from][to]))
                migration_time_[from][to] = to_ticks(migration_time[from][to], TickRounding::up);
    }

    wcet_.assign(n, kNever);
    min_wcet_ = kNever;
    min_energy_ = kNotExecutable;
    for (std::size_t i = 0; i < n; ++i) {
        const bool wcet_ok = std::isfinite(wcet[i]);
        const bool energy_ok = std::isfinite(energy_[i]);
        // Executability must be consistent between the two tables.
        RMWP_EXPECT(wcet_ok == energy_ok);
        if (!wcet_ok) continue;
        RMWP_EXPECT(wcet[i] > 0.0);
        RMWP_EXPECT(energy_[i] > 0.0);
        wcet_[i] = to_ticks(wcet[i], TickRounding::up);
        executable_.push_back(i);
        mean_wcet_ += wcet_[i];
        mean_energy_ += energy_[i];
        min_wcet_ = std::min(min_wcet_, wcet_[i]);
        min_energy_ = std::min(min_energy_, energy_[i]);
    }
    RMWP_EXPECT(!executable_.empty()); // footnote 1: at least one resource
    mean_wcet_ /= static_cast<Time>(executable_.size());
    mean_energy_ /= static_cast<double>(executable_.size());
}

Time TaskType::wcet(ResourceId i) const {
    RMWP_EXPECT(i < wcet_.size());
    return wcet_[i];
}

double TaskType::energy(ResourceId i) const {
    RMWP_EXPECT(i < energy_.size());
    return energy_[i];
}

bool TaskType::executable_on(ResourceId i) const {
    RMWP_EXPECT(i < wcet_.size());
    return wcet_[i] != kNever;
}

Time TaskType::migration_time(ResourceId from, ResourceId to) const {
    RMWP_EXPECT(from < migration_time_.size());
    RMWP_EXPECT(to < migration_time_.size());
    return migration_time_[from][to];
}

double TaskType::migration_energy(ResourceId from, ResourceId to) const {
    RMWP_EXPECT(from < migration_energy_.size());
    RMWP_EXPECT(to < migration_energy_.size());
    return migration_energy_[from][to];
}

} // namespace rmwp
