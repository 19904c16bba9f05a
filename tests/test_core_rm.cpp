// Tests for the resource managers: Algorithm 1 (heuristic), the
// branch-and-bound exact optimiser, admission/fallback semantics, and
// randomized cross-validation against brute-force enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <tuple>

#include "core/edf.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/reservation.hpp"
#include "platform/health.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

/// Table 1's catalog on the CPU1/CPU2/GPU platform (no migration).
Catalog table1_catalog() {
    const std::size_t n = 3;
    const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
    std::vector<TaskType> types;
    types.emplace_back(0, std::vector<double>{8.0, 12.0, 5.0},
                       std::vector<double>{7.3, 8.4, 2.0}, zero, zero);
    types.emplace_back(1, std::vector<double>{7.0, 8.5, 3.0},
                       std::vector<double>{6.2, 7.5, 1.5}, zero, zero);
    return Catalog(std::move(types));
}

/// A task arriving at `arrival_ms` with a relative deadline of `rel_deadline_ms`.
ActiveTask task_of(TaskUid uid, TaskTypeId type, double arrival_ms, double rel_deadline_ms) {
    ActiveTask task;
    task.uid = uid;
    task.type = type;
    task.arrival = ms(arrival_ms);
    task.absolute_deadline = ms(arrival_ms + rel_deadline_ms);
    return task;
}

/// Exhaustive search over all mappings (ground truth for the optimisers).
struct BruteForce {
    const PlanInstance& instance;
    double best = std::numeric_limits<double>::infinity();
    std::vector<ResourceId> mapping;
    std::vector<ResourceId> best_mapping;

    explicit BruteForce(const PlanInstance& inst) : instance(inst) {
        mapping.assign(inst.tasks.size(), 0);
        recurse(0, 0.0);
    }

    void recurse(std::size_t j, double cost) {
        if (j == instance.tasks.size()) {
            if (!feasible()) return;
            if (cost < best) {
                best = cost;
                best_mapping = mapping;
            }
            return;
        }
        for (const ResourceId i : instance.tasks[j].executable) {
            mapping[j] = i;
            recurse(j + 1, cost + instance.tasks[j].epm[i]);
        }
    }

    [[nodiscard]] bool feasible() const {
        for (ResourceId i = 0; i < instance.resource_count(); ++i) {
            std::vector<ScheduleItem> items;
            for (std::size_t j = 0; j < instance.tasks.size(); ++j)
                if (mapping[j] == i) items.push_back(instance.item_for(j, i));
            if (!resource_feasible(instance.platform->resource(i), instance.now, items))
                return false;
        }
        return true;
    }

    [[nodiscard]] bool found() const { return !best_mapping.empty(); }
};

// ---- motivational-example decisions at the unit level ----

TEST(HeuristicRM, SingleTaskGoesToCheapestResource) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = table1_catalog();
    ArrivalContext context;
    context.now = 0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate = task_of(0, 0, 0.0, 8.0);

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    ASSERT_EQ(decision.assignments.size(), 1u);
    EXPECT_EQ(decision.assignments[0].resource, 2u); // GPU: 2 J vs 7.3/8.4 J
}

TEST(HeuristicRM, PredictionDivertsTaskOffTheGpu) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = table1_catalog();
    ArrivalContext context;
    context.now = 0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate = task_of(0, 0, 0.0, 8.0);
    context.predicted = {PredictedTask{1, ms(1.0), ms(5.0)}};

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_TRUE(decision.used_prediction);
    // tau_1 must leave the GPU for the predicted tau_2: CPU1 is the only
    // resource where it still meets its deadline (8 <= 8).
    EXPECT_EQ(decision.assignments[0].resource, 0u);
}

TEST(HeuristicRM, RejectsWhenGpuPinnedTaskBlocksUrgentArrival) {
    // Scenario (a) of Fig 1: tau_1 runs pinned on the GPU; tau_2 arrives at
    // t=1 with no feasible resource left.
    const Platform platform = make_motivational_platform();
    const Catalog catalog = table1_catalog();

    ActiveTask running = task_of(0, 0, 0.0, 8.0);
    running.resource = 2;
    running.started = true;
    running.pinned = true;
    running.remaining = ms(4); // 1 of 5 ms done

    const std::vector<ActiveTask> active{running};
    ArrivalContext context;
    context.now = ms(1.0);
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(1, 1, 1.0, 5.0);

    HeuristicRM heuristic;
    ExactRM exact;
    EXPECT_FALSE(heuristic.decide(context).admitted);
    EXPECT_FALSE(exact.decide(context).admitted);
}

TEST(HeuristicRM, FallsBackToNoPredictionPlan) {
    // The predicted task saturates the platform; planning with it fails but
    // the arriving task must still be admitted via the Sec 4.1 fallback.
    const Platform platform = make_motivational_platform();
    const Catalog catalog = table1_catalog();
    ArrivalContext context;
    context.now = 0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate = task_of(0, 0, 0.0, 8.0);
    // Predicted task with an impossible deadline.
    context.predicted = {PredictedTask{1, ms(0.5), ms(0.1)}};

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_FALSE(decision.used_prediction);
}

TEST(HeuristicRM, AssignmentsCoverActiveSetPlusCandidate) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = table1_catalog();

    std::vector<ActiveTask> active{task_of(0, 0, 0.0, 50.0), task_of(1, 1, 0.0, 60.0)};
    active[0].resource = 0;
    active[1].resource = 1;
    ArrivalContext context;
    context.now = ms(1.0);
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(2, 1, 1.0, 40.0);

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(decision.assignments.size(), 3u);
    const WindowSchedule schedule = realize_decision(context, decision);
    EXPECT_TRUE(schedule.feasible);
}

TEST(ExactRM, MatchesPaperObjectiveOnTable1) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = table1_catalog();
    ArrivalContext context;
    context.now = 0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.candidate = task_of(0, 0, 0.0, 8.0);
    context.predicted = {PredictedTask{1, ms(1.0), ms(5.0)}};

    const PlanInstance instance = PlanInstance::build(context, true);
    const auto result = ExactRM::optimize(instance);
    ASSERT_TRUE(result.has_value());
    // tau_1 on CPU1 (7.3 J) + predicted tau_2 on GPU (1.5 J).
    EXPECT_NEAR(result->energy, 8.8, 1e-9);
    EXPECT_TRUE(result->proven_optimal);
}

TEST(ExactRM, PinnedTaskStaysPut) {
    const Platform platform = make_motivational_platform();
    const Catalog catalog = table1_catalog();

    ActiveTask pinned = task_of(0, 0, 0.0, 20.0);
    pinned.resource = 2;
    pinned.started = true;
    pinned.pinned = true;
    pinned.remaining = catalog.type(0).wcet(2) / 2;

    const std::vector<ActiveTask> active{pinned};
    ArrivalContext context;
    context.now = ms(1.0);
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(1, 1, 1.0, 30.0);

    HeuristicRM heuristic;
    ExactRM exact;
    for (ResourceManager* rm : std::initializer_list<ResourceManager*>{&heuristic, &exact}) {
        const Decision decision = rm->decide(context);
        ASSERT_TRUE(decision.admitted);
        for (const TaskAssignment& assignment : decision.assignments)
            if (assignment.uid == 0) {
                EXPECT_EQ(assignment.resource, 2u);
            }
    }
}

// ---- randomized cross-validation ----

struct RandomInstance {
    Platform platform = make_motivational_platform();
    Catalog catalog;
    std::vector<ActiveTask> active;
    ArrivalContext context;

    static Catalog make_catalog(const Platform& platform, std::uint64_t seed) {
        CatalogParams params;
        params.type_count = 8;
        Rng catalog_rng = Rng(seed).derive(1);
        return generate_catalog(platform, params, catalog_rng);
    }

    explicit RandomInstance(std::uint64_t seed, std::size_t max_tasks = 5)
        : catalog(make_catalog(platform, seed)) {
        Rng rng(seed);

        const std::size_t task_count = rng.index(max_tasks);
        for (std::size_t j = 0; j < task_count; ++j) {
            ActiveTask task = task_of(j, rng.index(catalog.size()), 0.0, 0.0);
            const TaskType& type = catalog.type(task.type);
            task.absolute_deadline = ms(rng.uniform(10.0, 120.0));
            task.resource =
                type.executable_resources()[rng.index(type.executable_resources().size())];
            if (rng.bernoulli(0.5)) {
                task.started = true;
                task.remaining = scale_up(type.wcet(task.resource), rng.uniform(0.2, 1.0));
                if (!platform.resource(task.resource).preemptable()) task.pinned = true;
            }
            active.push_back(task);
        }

        context.now = ms(5.0);
        context.platform = &platform;
        context.catalog = &catalog;
        context.active = active;
        context.candidate = task_of(100, rng.index(catalog.size()), 5.0, rng.uniform(8.0, 90.0));
        if (rng.bernoulli(0.7)) {
            context.predicted = {PredictedTask{rng.index(catalog.size()),
                                               ms(5.0 + rng.uniform(0.0, 10.0)),
                                               ms(rng.uniform(6.0, 60.0))}};
        }
    }
};

class RmCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RmCrossValidation, ExactMatchesBruteForce) {
    const RandomInstance random(GetParam());
    for (const bool with_prediction : {false, true}) {
        const PlanInstance instance = PlanInstance::build(random.context, with_prediction);
        const BruteForce truth(instance);
        const auto exact = ExactRM::optimize(instance);
        ASSERT_EQ(exact.has_value(), truth.found());
        if (exact) {
            EXPECT_NEAR(exact->energy, truth.best, 1e-9)
                << "seed " << GetParam() << " prediction " << with_prediction;
        }
    }
}

TEST_P(RmCrossValidation, HeuristicNeverBeatsExactAndIsAlwaysFeasible) {
    const RandomInstance random(GetParam());
    for (const bool with_prediction : {false, true}) {
        const PlanInstance instance = PlanInstance::build(random.context, with_prediction);
        const auto heuristic = HeuristicRM::map_tasks(instance);
        const auto exact = ExactRM::optimize(instance);
        if (heuristic) {
            // Whatever the heuristic maps must be feasible...
            double energy = 0.0;
            for (ResourceId i = 0; i < instance.resource_count(); ++i) {
                std::vector<ScheduleItem> items;
                for (std::size_t j = 0; j < instance.tasks.size(); ++j)
                    if ((*heuristic)[j] == i) items.push_back(instance.item_for(j, i));
                EXPECT_TRUE(
                    resource_feasible(instance.platform->resource(i), instance.now, items));
            }
            for (std::size_t j = 0; j < instance.tasks.size(); ++j)
                energy += instance.tasks[j].epm[(*heuristic)[j]];
            // ... and the exact optimum can only be cheaper.
            ASSERT_TRUE(exact.has_value());
            EXPECT_LE(exact->energy, energy + 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, RmCrossValidation,
                         ::testing::Range<std::uint64_t>(0, 60));

// ---- Algorithm 1 against a textbook re-statement ----

/// Algorithm 1 as the paper states it, with no incremental state: every
/// iteration recomputes every unmapped task's (best, second, feasible)
/// triple from scratch in a sweep over 0..count, and every probe checks a
/// fresh copy of the resource's items.  The production solver caches the
/// triples, scans only the open tasks, and keeps per-anchor lists sorted;
/// it must return exactly this mapping.
std::optional<std::vector<ResourceId>> textbook_map_tasks(const PlanInstance& instance,
                                                          const HeuristicRM::Options& options) {
    using Options = HeuristicRM::Options;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const Platform& platform = *instance.platform;
    const std::size_t n = instance.resource_count();
    const std::size_t count = instance.tasks.size();
    const auto anchor = [&](ResourceId i) { return platform.resource(i).physical(); };
    const auto desirability = [&](std::size_t j, ResourceId i) {
        const PlanTask& task = instance.tasks[j];
        const double penalty = task.cpm[i] > task.time_left(instance.now) ? 1e9 : 0.0;
        const double base = options.desirability == Options::Desirability::energy
                                ? task.epm[i]
                                : task.epm[i] / static_cast<double>(task.cpm[i]);
        return base + penalty;
    };

    std::vector<Time> capacity(n);
    for (ResourceId i = 0; i < n; ++i) capacity[i] = instance.window - instance.blocked_time[i];
    std::vector<std::vector<ScheduleItem>> assigned = instance.blocks;
    std::vector<ResourceId> mapping(count, 0);
    std::vector<bool> mapped(count, false);

    for (std::size_t round = 0; round < count; ++round) {
        double best_regret = -kInf;
        std::size_t chosen = count;
        for (std::size_t j = 0; j < count; ++j) {
            if (mapped[j]) continue;
            const PlanTask& task = instance.tasks[j];
            double best = kInf;
            double second = kInf;
            std::size_t feasible = 0;
            for (const ResourceId i : task.executable) {
                if (task.cpm[i] > capacity[anchor(i)]) continue;
                ++feasible;
                const double f = desirability(j, i);
                if (f < best) {
                    second = best;
                    best = f;
                } else if (f < second) {
                    second = f;
                }
            }
            if (feasible == 0) return std::nullopt;
            switch (options.order) {
            case Options::Order::max_regret: {
                const double regret = feasible == 1 ? kInf : second - best;
                if (regret > best_regret) {
                    best_regret = regret;
                    chosen = j;
                }
                break;
            }
            case Options::Order::edf:
                if (chosen == count || task.abs_deadline < instance.tasks[chosen].abs_deadline)
                    chosen = j;
                break;
            case Options::Order::arrival:
                if (chosen == count) chosen = j;
                break;
            }
        }

        const PlanTask& task = instance.tasks[chosen];
        std::vector<bool> excluded(n, false);
        while (true) {
            double best = kInf;
            ResourceId target = n;
            for (const ResourceId i : task.executable) {
                if (excluded[i] || task.cpm[i] > capacity[anchor(i)]) continue;
                if (desirability(chosen, i) < best) {
                    best = desirability(chosen, i);
                    target = i;
                }
            }
            if (target == n) return std::nullopt;
            std::vector<ScheduleItem> items = assigned[anchor(target)];
            items.push_back(instance.item_for(chosen, target));
            if (resource_feasible(platform.resource(anchor(target)), instance.now, items)) {
                assigned[anchor(target)] = std::move(items);
                capacity[anchor(target)] -= task.cpm[target];
                mapping[chosen] = target;
                mapped[chosen] = true;
                break;
            }
            excluded[target] = true;
        }
    }
    return mapping;
}

enum class DiffPlatform { paper, dvfs, islands };

/// `catalog` with every WCET and migration time rounded up to a whole
/// number.  With whole deadlines too, all planning arithmetic is exact, so
/// a lane that exactly fills its core's remaining capacity is common.
Catalog whole_number_times(const Catalog& catalog) {
    const auto whole = [](double t) { return std::isfinite(t) ? std::max(1.0, std::ceil(t)) : t; };
    std::vector<TaskType> types;
    for (const TaskType& type : catalog) {
        const std::size_t n = type.resource_count();
        std::vector<double> wcet(n);
        std::vector<double> energy(n);
        std::vector<std::vector<double>> migration_time(n, std::vector<double>(n, 0.0));
        std::vector<std::vector<double>> migration_energy(n, std::vector<double>(n, 0.0));
        for (ResourceId i = 0; i < n; ++i) {
            wcet[i] = type.executable_on(i) ? whole(to_ms(type.wcet(i))) : kNotExecutable;
            energy[i] = type.energy(i);
            for (ResourceId k = 0; k < n; ++k) {
                if (k == i) continue;
                migration_time[k][i] = std::ceil(to_ms(type.migration_time(k, i)));
                migration_energy[k][i] = type.migration_energy(k, i);
            }
        }
        types.emplace_back(type.id(), std::move(wcet), std::move(energy),
                           std::move(migration_time), std::move(migration_energy));
    }
    return Catalog(std::move(types));
}

/// `catalog` with every energy (task and migration) rounded to a multiple
/// of `step`: equal-energy placements, and with them the solvers' energy
/// tie-breaks, become common.
Catalog energies_on_grid(const Catalog& catalog, double step) {
    const auto snap = [step](double e) {
        return std::isfinite(e) ? std::max(step, std::round(e / step) * step) : e;
    };
    std::vector<TaskType> types;
    for (const TaskType& type : catalog) {
        const std::size_t n = type.resource_count();
        std::vector<double> wcet;
        std::vector<double> energy;
        std::vector<std::vector<double>> migration_time(n);
        std::vector<std::vector<double>> migration_energy(n);
        for (ResourceId i = 0; i < n; ++i) {
            wcet.push_back(type.executable_on(i) ? to_ms(type.wcet(i)) : kNotExecutable);
            energy.push_back(snap(type.energy(i)));
            for (ResourceId k = 0; k < n; ++k) {
                migration_time[i].push_back(to_ms(type.migration_time(i, k)));
                migration_energy[i].push_back(k == i ? 0.0 : snap(type.migration_energy(i, k)));
            }
        }
        types.emplace_back(type.id(), std::move(wcet), std::move(energy),
                           std::move(migration_time), std::move(migration_energy));
    }
    return Catalog(std::move(types));
}

/// A loaded activation of 20-30 tasks: enough work that capacities run out
/// mid-solve and lanes stop fitting, with every instance feature the
/// solver reads — pinned and partly executed tasks, predictions,
/// reservation blocks, throttled and offline cores.  Deadlines sit on a
/// coarse grid so max-regret and EDF ties are common.  Odd seeds use whole
/// (or dyadic) times throughout, so lanes that exactly fit occur.
struct LoadedInstance {
    Platform platform;
    Catalog catalog;
    ReservationTable reservations;
    PlatformHealth health;
    std::vector<ActiveTask> active;
    ArrivalContext context;

    static Platform make_platform(DiffPlatform kind) {
        PlatformBuilder builder;
        switch (kind) {
        case DiffPlatform::paper: return make_paper_platform();
        case DiffPlatform::dvfs:
            builder.add_cpu_with_dvfs({1.0, 0.8, 0.5}, "big");
            builder.add_cpu_with_dvfs({1.0, 0.6}, "little");
            builder.add_cpu("CPU");
            builder.add_gpu("GPU");
            break;
        case DiffPlatform::islands:
            for (int k = 0; k < 24; ++k) builder.add_cpu("CPU" + std::to_string(k));
            for (int k = 0; k < 4; ++k) builder.add_gpu("GPU" + std::to_string(k));
            builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
            break;
        }
        return builder.build();
    }

    static Catalog make_catalog(const Platform& platform, DiffPlatform kind, std::uint64_t seed) {
        CatalogParams params;
        params.type_count = 12;
        params.static_energy_fraction = 0.3;
        Rng catalog_rng = Rng(seed).derive(1);
        Catalog catalog = kind == DiffPlatform::islands
                              ? generate_partitioned_catalog(platform, params, 4, catalog_rng)
                              : generate_catalog(platform, params, catalog_rng);
        return seed % 2 == 1 ? whole_number_times(catalog) : catalog;
    }

    /// Physical cores of the platform, in id order.
    [[nodiscard]] std::vector<ResourceId> anchors() const {
        std::vector<ResourceId> out;
        for (const Resource& resource : platform)
            if (resource.physical() == resource.id()) out.push_back(resource.id());
        return out;
    }

    /// `min_tasks` + [0, `task_spread`) active tasks (default: 19-29).
    LoadedInstance(DiffPlatform kind, std::uint64_t seed, std::size_t min_tasks = 19,
                   std::size_t task_spread = 11)
        : platform(make_platform(kind)), catalog(make_catalog(platform, kind, seed)) {
        Rng rng(seed);
        const bool exact = seed % 2 == 1;
        // A draw from [lo, hi): whole numbers (or quarters) when `exact`.
        const auto draw = [&](double lo, double hi, double step) {
            const double x = rng.uniform(lo, hi);
            return exact ? std::floor(x / step) * step : x;
        };
        const std::vector<ResourceId> cores = anchors();
        // Scale the deadline grid with the cores a task can reach (an
        // islands task reaches a quarter of them), so every platform is
        // loaded to the point where some rungs fail and some succeed.
        const double reach = kind == DiffPlatform::islands ? 0.25 : 1.0;
        const double scale = std::round(220.0 / (reach * static_cast<double>(cores.size())));

        if (rng.bernoulli(0.5)) {
            std::vector<CriticalTask> critical;
            const ResourceId core = cores[rng.index(cores.size())];
            critical.push_back(
                CriticalTask{"crit", core, ms(40), ms(draw(0.0, 20.0, 1.0)), ms(draw(2.0, 12.0, 1.0)),
                             1.0});
            reservations = ReservationTable(std::move(critical));
            context.reservations = &reservations;
        }
        if (rng.bernoulli(0.6)) {
            health.set_throttle(platform, cores[rng.index(cores.size())], draw(1.25, 2.0, 0.25));
            if (rng.bernoulli(0.4))
                health.set_online(platform, cores[rng.index(cores.size())], false);
            context.health = &health;
        }

        const std::size_t task_count = min_tasks + rng.index(task_spread); // plus the candidate
        for (std::size_t j = 0; j < task_count; ++j) {
            ActiveTask task = task_of(j, rng.index(catalog.size()), 0.0, 0.0);
            const TaskType& type = catalog.type(task.type);
            task.absolute_deadline = ms(5.0 + scale * static_cast<double>(1 + rng.index(8)));
            task.resource =
                type.executable_resources()[rng.index(type.executable_resources().size())];
            if (rng.bernoulli(0.4)) {
                task.started = true;
                task.remaining =
                    scale_up(effective_wcet(type, task.resource, &health), draw(0.25, 1.0, 0.25));
                if (!platform.resource(task.resource).preemptable()) task.pinned = true;
            }
            active.push_back(task);
        }

        context.now = ms(5.0);
        context.platform = &platform;
        context.catalog = &catalog;
        context.active = active;
        context.candidate = task_of(100, rng.index(catalog.size()), 5.0,
                                    scale * static_cast<double>(1 + rng.index(8)));
        const std::size_t predictions = rng.index(4);
        for (std::size_t k = 0; k < predictions; ++k) {
            context.predicted.push_back(
                PredictedTask{rng.index(catalog.size()), ms(5.0 + draw(0.0, 10.0, 1.0)),
                              ms(scale * static_cast<double>(1 + rng.index(8)))});
        }
    }
};

class Algorithm1Differential
    : public ::testing::TestWithParam<std::tuple<DiffPlatform, std::uint64_t>> {};

TEST_P(Algorithm1Differential, IncrementalSolverMatchesTextbook) {
    using Options = HeuristicRM::Options;
    const auto [kind, seed] = GetParam();
    const LoadedInstance loaded(kind, seed);
    for (std::size_t k = 0; k <= loaded.context.predicted.size(); ++k) {
        const PlanInstance instance = PlanInstance::build(loaded.context, k);
        for (const Options::Order order :
             {Options::Order::max_regret, Options::Order::edf, Options::Order::arrival}) {
            for (const Options::Desirability desirability :
                 {Options::Desirability::energy, Options::Desirability::energy_density}) {
                Options options;
                options.order = order;
                options.desirability = desirability;
                const auto expected = textbook_map_tasks(instance, options);
                const auto actual = HeuristicRM::map_tasks(instance, options);
                ASSERT_EQ(actual.has_value(), expected.has_value())
                    << "rung " << k << " order " << static_cast<int>(order)
                    << " desirability " << static_cast<int>(desirability);
                if (!expected) continue;
                EXPECT_TRUE(std::equal(actual->begin(), actual->end(), expected->begin(),
                                       expected->end()))
                    << "rung " << k << " order " << static_cast<int>(order)
                    << " desirability " << static_cast<int>(desirability);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LoadedInstances, Algorithm1Differential,
                         ::testing::Combine(::testing::Values(DiffPlatform::paper,
                                                              DiffPlatform::dvfs,
                                                              DiffPlatform::islands),
                                            ::testing::Range<std::uint64_t>(0, 40)));

/// The flip test's boundary, directed: a lane whose cpm equals its core's
/// capacity fits, and stops fitting once a placement takes any of it.
/// X (largest regret) goes to CPU0 first, leaving 40 of 100.  B fitted CPU0
/// exactly (cpm 100), so B is left with one lane: infinite regret, placed
/// next on CPU1, and D then fits only CPU0.  A solver that missed B's flip
/// would pick D (regret 50 > B's stale 10), put D on CPU1, and leave B
/// nowhere to go.
TEST(HeuristicRM, LaneThatExactlyFillsItsCoreFlipsOnTheNextPlacement) {
    PlatformBuilder builder;
    const Platform platform = builder.add_cpu("CPU0").add_cpu("CPU1").build();
    const std::vector<std::vector<double>> zero(2, std::vector<double>(2, 0.0));
    std::vector<TaskType> types;
    types.emplace_back(0, std::vector<double>{60.0, 60.0}, std::vector<double>{1.0, 100.0},
                       zero, zero); // X
    types.emplace_back(1, std::vector<double>{100.0, 50.0}, std::vector<double>{10.0, 20.0},
                       zero, zero); // B
    types.emplace_back(2, std::vector<double>{30.0, 60.0}, std::vector<double>{55.0, 5.0},
                       zero, zero); // D
    const Catalog catalog(std::move(types));

    const std::vector<ActiveTask> active{task_of(0, 0, 0.0, 100.0), task_of(1, 2, 0.0, 100.0)};
    ArrivalContext context;
    context.now = 0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(2, 1, 0.0, 100.0);

    const PlanInstance instance = PlanInstance::build(context, 0);
    const auto mapping = HeuristicRM::map_tasks(instance);
    ASSERT_TRUE(mapping.has_value());
    const std::vector<ResourceId> expected{0, 0, 1}; // X, D, B
    EXPECT_TRUE(std::equal(mapping->begin(), mapping->end(), expected.begin(), expected.end()));
    const auto textbook = textbook_map_tasks(instance, HeuristicRM::Options{});
    ASSERT_TRUE(textbook.has_value());
    EXPECT_EQ(*textbook, expected);
}

// ---- the exact B&B against a textbook re-statement ----

/// Branch-and-bound as it reads in a textbook: every node re-checks the
/// bound on entry, re-sorts its task's candidates, and skips (rather than
/// stops at) a candidate that fails the bound.  The production search sorts
/// each task's candidates once per solve and stops at the first bounded
/// one; it must return the same mapping and energy bits, visit the same
/// number of nodes, and agree on proven optimality — at any node limit, so
/// a truncated search stops on the same node.
struct TextbookBnB {
    /// Double-double exact sum, as ExactRM keeps its costs.
    struct Sum {
        double hi = 0.0;
        double lo = 0.0;
        [[nodiscard]] Sum plus(double x) const {
            const double s = hi + x;
            const double b = s - hi;
            const double err = ((hi - (s - b)) + (x - b)) + lo;
            const double h = s + err;
            return Sum{h, err - (h - s)};
        }
        [[nodiscard]] bool less_than(const Sum& other) const {
            if (hi != other.hi) return hi < other.hi;
            return lo < other.lo;
        }
    };
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    const PlanInstance& instance;
    std::uint64_t node_limit;
    std::vector<std::size_t> order;
    std::vector<Sum> suffix;
    std::vector<std::vector<ScheduleItem>> assigned;
    std::vector<ResourceId> current;
    std::vector<ResourceId> best;
    Sum best_cost{kInf, 0.0};
    bool proven = true;
    std::uint64_t nodes = 0;

    TextbookBnB(const PlanInstance& inst, std::uint64_t limit)
        : instance(inst), node_limit(limit), assigned(inst.blocks),
          current(inst.tasks.size(), 0) {
        const std::size_t count = inst.tasks.size();
        for (auto& items : assigned) std::sort(items.begin(), items.end(), demand_order);
        order.resize(count);
        for (std::size_t j = 0; j < count; ++j) order[j] = j;
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            const PlanTask& ta = inst.tasks[a];
            const PlanTask& tb = inst.tasks[b];
            if (ta.executable.size() != tb.executable.size())
                return ta.executable.size() < tb.executable.size();
            if (ta.abs_deadline != tb.abs_deadline) return ta.abs_deadline < tb.abs_deadline;
            return a < b;
        });
        suffix.assign(count + 1, Sum{});
        for (std::size_t d = count; d-- > 0;) {
            const PlanTask& task = inst.tasks[order[d]];
            double cheapest = kInf;
            for (const ResourceId i : task.executable) cheapest = std::min(cheapest, task.epm[i]);
            suffix[d] = std::isfinite(cheapest) && std::isfinite(suffix[d + 1].hi)
                            ? suffix[d + 1].plus(cheapest)
                            : Sum{kInf, 0.0};
        }
        dfs(0, Sum{});
    }

    [[nodiscard]] bool can_improve(const Sum& cost, const Sum& rest) const {
        if (!std::isfinite(rest.hi)) return false;
        return cost.plus(rest.hi).plus(rest.lo).less_than(best_cost);
    }

    void dfs(std::size_t depth, Sum cost) {
        if (nodes >= node_limit) {
            proven = false;
            return;
        }
        ++nodes;
        if (depth == order.size()) {
            if (cost.less_than(best_cost)) {
                best_cost = cost;
                best = current;
            }
            return;
        }
        if (!can_improve(cost, suffix[depth])) return;
        const std::size_t j = order[depth];
        const PlanTask& task = instance.tasks[j];
        std::vector<ResourceId> candidates(task.executable.begin(), task.executable.end());
        std::sort(candidates.begin(), candidates.end(), [&](ResourceId a, ResourceId b) {
            if (task.epm[a] != task.epm[b]) return task.epm[a] < task.epm[b];
            return a < b;
        });
        for (const ResourceId i : candidates) {
            const Sum next = cost.plus(task.epm[i]);
            if (!can_improve(next, suffix[depth + 1])) continue;
            const ResourceId anchor = instance.platform->resource(i).physical();
            const std::size_t pos = insert_demand_ordered(assigned[anchor], instance.item_for(j, i));
            if (resource_feasible_sorted(instance.platform->resource(anchor), instance.now,
                                         assigned[anchor])) {
                current[j] = i;
                dfs(depth + 1, next);
            }
            assigned[anchor].erase(assigned[anchor].begin() + static_cast<std::ptrdiff_t>(pos));
            if (!proven && best.empty()) return;
        }
    }
};

/// Platform, deadline scale, seed.  A scale below 1 pulls the admitted
/// tasks' deadlines towards `now`: fewer mappings fit, so the search
/// backtracks through thousands of nodes instead of a hundred.
class ExactBnBDifferential
    : public ::testing::TestWithParam<std::tuple<DiffPlatform, double, std::uint64_t>> {};

TEST_P(ExactBnBDifferential, PresortedCutoffSearchMatchesTextbook) {
    const auto [kind, scale, seed] = GetParam();
    // 15-25 tasks with the candidate.  Odd seeds (whole-number times) also
    // put energies on a coarse grid, so the resource-id tie-break decides.
    LoadedInstance loaded(kind, seed, /*min_tasks=*/14, /*task_spread=*/11);
    const Catalog tied = energies_on_grid(loaded.catalog, 4.0);
    if (seed % 2 == 1) loaded.context.catalog = &tied;
    const Time now = loaded.context.now;
    for (ActiveTask& task : loaded.active)
        task.absolute_deadline = now + scale_down(task.absolute_deadline - now, scale);
    for (std::size_t k = 0; k <= loaded.context.predicted.size(); ++k) {
        const PlanInstance instance = PlanInstance::build(loaded.context, k);
        for (const std::uint64_t limit :
             {std::numeric_limits<std::uint64_t>::max(), std::uint64_t{50}, std::uint64_t{2}}) {
            const TextbookBnB expected(instance, limit);
            ExactRM::Options options;
            options.node_limit = limit;
            bool proven = false;
            const auto actual = ExactRM::optimize(instance, options, &proven);
            ASSERT_EQ(actual.has_value(), !expected.best.empty())
                << "rung " << k << " limit " << limit;
            EXPECT_EQ(proven, expected.proven) << "rung " << k << " limit " << limit;
            if (!actual) continue;
            EXPECT_EQ(actual->mapping, expected.best) << "rung " << k << " limit " << limit;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(actual->energy),
                      std::bit_cast<std::uint64_t>(expected.best_cost.hi))
                << "rung " << k << " limit " << limit;
            EXPECT_EQ(actual->nodes, expected.nodes) << "rung " << k << " limit " << limit;
            EXPECT_EQ(actual->proven_optimal, expected.proven)
                << "rung " << k << " limit " << limit;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LoadedInstances, ExactBnBDifferential,
                         ::testing::Combine(::testing::Values(DiffPlatform::paper,
                                                              DiffPlatform::dvfs,
                                                              DiffPlatform::islands),
                                            ::testing::Values(1.0, 0.6),
                                            ::testing::Range<std::uint64_t>(0, 30)));

TEST(ExactRM, NodeLimitReturnsBestEffort) {
    const RandomInstance random(17, /*max_tasks=*/5);
    const PlanInstance instance = PlanInstance::build(random.context, true);
    ExactRM::Options options;
    options.node_limit = 2; // absurdly small
    const auto result = ExactRM::optimize(instance, options);
    if (result) {
        EXPECT_FALSE(result->proven_optimal);
    }
}

} // namespace
} // namespace rmwp
