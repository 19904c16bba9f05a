// Differential fuzz-and-property suite for admission decomposed by
// resource group (DESIGN.md §15): HeuristicRM and ExactRM must decide
// *bit-identically* to the test-only whole-instance reference RMs
// (tests/admission_reference.hpp), which never decompose.
//
//   * fuzzer — 200 random worlds on a four-island platform (the partition
//     the decomposition exists for), each decided by {heuristic, exact}
//     and its whole-instance reference, with injected faults and 0-2
//     predicted requests, on both decide() and decide_batch();
//   * directed cases — a cross-group tie-break world of byte-identical twin
//     islands; the one-group platform, which must never enter shard_solve;
//     and an exact node budget that binds, where decide() must still equal
//     decide_batch() of the one item;
//   * partition properties — groups are the executability components,
//     rebuilt deterministically;
//   * order properties — demand_order is a total order whose per-group
//     sort + merge equals the full sort, and insert_demand_ordered's
//     incremental state equals a full re-sort (the foundation the
//     per-group EDF probes stand on);
//   * serve level — a faulty, predicted, 400-arrival serve run ends in the
//     same simulated state as the whole-instance service, records decision
//     latency after the cross-group merge (monotone HDR quantiles), and
//     attributes shard_solve / shard_merge stage samples to the engine
//     thread.
//
// An RMWP_AUDIT build additionally re-solves every split instance whole
// inside ShardedSolver::run and asserts bit-equality — running this binary
// under build-audit exercises that drift gate on every world below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "admission_reference.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/shard.hpp"
#include "obs/stage_timer.hpp"
#include "platform/health.hpp"
#include "predict/online.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

constexpr std::size_t kIslands = 4;

/// Randomized single-arrival world on the islands platform: assorted active
/// tasks spread over the islands, optional injected faults (outage and
/// throttle), a fresh candidate, and 0-2 predicted requests.
struct ShardWorld {
    Platform platform;
    Catalog catalog;
    PlatformHealth health;
    std::vector<ActiveTask> active;
    ArrivalContext context;

    explicit ShardWorld(std::uint64_t seed)
        : platform(make_islands_platform()), catalog([&] {
        CatalogParams params;
        params.type_count = 16;
        Rng catalog_rng = Rng(seed).derive(1);
        return generate_partitioned_catalog(platform, params, kIslands, catalog_rng);
    }()) {
        Rng rng(seed);

        // Faults first, so active tasks only ever sit on online resources
        // (the engine invariant): maybe one outage and one throttle, always
        // sparing CPU0 so at least one island stays fully healthy.
        if (rng.bernoulli(0.35)) {
            const ResourceId victim = 1 + static_cast<ResourceId>(rng.index(7));
            health.set_online(platform, victim, false);
        }
        if (rng.bernoulli(0.35)) {
            const ResourceId victim = 1 + static_cast<ResourceId>(rng.index(7));
            if (health.online(victim))
                health.set_throttle(platform, victim, rng.uniform(1.1, 1.8));
        }

        const std::size_t task_count = rng.index(6);
        for (std::size_t j = 0; j < task_count; ++j) {
            const TaskTypeId type_id = rng.index(catalog.size());
            const TaskType& type = catalog.type(type_id);
            std::vector<ResourceId> online;
            for (const ResourceId r : type.executable_resources())
                if (health.online(r)) online.push_back(r);
            if (online.empty()) continue; // its whole island is dark; skip
            ActiveTask task = task_of(j, type_id, 0.0, 0.0);
            task.absolute_deadline = ms(rng.uniform(15.0, 160.0));
            task.resource = online[rng.index(online.size())];
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
        context.health = &health;
        context.candidate = task_of(100, rng.index(catalog.size()), 5.0, rng.uniform(10.0, 120.0));
        const std::size_t lookahead = rng.index(3); // 0-2 predicted requests
        for (std::size_t p = 0; p < lookahead; ++p)
            context.predicted.push_back(PredictedTask{rng.index(catalog.size()),
                                                      ms(5.0 + rng.uniform(0.0, 12.0)),
                                                      ms(rng.uniform(8.0, 80.0))});
    }

    /// A follow-up candidate arriving at the same instant as the first.
    [[nodiscard]] BatchItem item(TaskUid uid, Rng& rng) const {
        BatchItem item;
        item.candidate = task_of(uid, rng.index(catalog.size()), 5.0, rng.uniform(10.0, 120.0));
        if (rng.bernoulli(0.6))
            item.predicted = {PredictedTask{rng.index(catalog.size()),
                                            ms(5.0 + rng.uniform(0.0, 12.0)),
                                            ms(rng.uniform(8.0, 80.0))}};
        return item;
    }

    [[nodiscard]] BatchArrivalContext batch_of(std::span<const BatchItem> items) const {
        BatchArrivalContext batch;
        batch.now = context.now;
        batch.platform = &platform;
        batch.catalog = &catalog;
        batch.active = active;
        batch.items = items;
        batch.health = &health;
        return batch;
    }
};

using Kind = WholeInstanceRM::Solver;

std::unique_ptr<ResourceManager> make_rm(Kind kind) {
    if (kind == Kind::heuristic) return std::make_unique<HeuristicRM>();
    return std::make_unique<ExactRM>();
}

// ---- the differential fuzzer ----

class ShardDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDifferential, DecideAndBatchBitIdenticalToTheWholeInstanceSolve) {
    const std::uint64_t seed = GetParam();
    const ShardWorld world(seed);
    Rng rng(seed ^ 0xd1ffe4e57ULL);

    std::vector<BatchItem> items;
    items.push_back({world.context.candidate, world.context.predicted});
    const std::size_t extra = 1 + rng.index(3);
    for (std::size_t m = 0; m < extra; ++m) items.push_back(world.item(101 + m, rng));
    const BatchArrivalContext batch = world.batch_of(items);

    for (const Kind kind : {Kind::heuristic, Kind::exact}) {
        WholeInstanceRM reference(kind);
        const Decision single = reference.decide(world.context);
        std::vector<Decision> batched;
        reference.decide_batch(batch, batched);
        ASSERT_EQ(batched.size(), items.size()) << reference.name();

        const std::unique_ptr<ResourceManager> rm = make_rm(kind);
        expect_same_decision(single, rm->decide(world.context),
                             (rm->name() + " decide").c_str(), seed);
        std::vector<Decision> by_group;
        rm->decide_batch(batch, by_group);
        ASSERT_EQ(by_group.size(), items.size()) << rm->name();
        for (std::size_t m = 0; m < items.size(); ++m)
            expect_same_decision(batched[m], by_group[m], (rm->name() + " batch").c_str(), seed,
                                 m);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferential, ::testing::Range<std::uint64_t>(0, 200));

// ---- directed cases ----

/// Byte-identical twin islands: CPU0 and CPU1 host mirror-image task types
/// with equal costs and equal deadlines, so every cross-group comparison a
/// whole-instance solve could make is a tie.  The per-group path never
/// makes those comparisons (groups are independent); bit-identity therefore
/// hinges on the within-group tie-breaks being total — exactly what the
/// totalized sorts in ExactRM and the lowest-index picks in Algorithm 1
/// provide.
TEST(ShardDirected, CrossGroupTieBreaksMatchTheWholeInstanceSolve) {
    PlatformBuilder builder;
    builder.add_cpu("CPU0");
    builder.add_cpu("CPU1");
    const Platform platform = builder.build();

    const double inf = kNotExecutable;
    const std::vector<std::vector<double>> no_migration(2, std::vector<double>(2, 0.0));
    std::vector<TaskType> types;
    types.emplace_back(0, std::vector<double>{10.0, inf}, std::vector<double>{5.0, inf},
                       no_migration, no_migration); // island 0 resident
    types.emplace_back(1, std::vector<double>{inf, 10.0}, std::vector<double>{inf, 5.0},
                       no_migration, no_migration); // island 1 mirror twin
    types.emplace_back(2, std::vector<double>{10.0, inf}, std::vector<double>{5.0, inf},
                       no_migration, no_migration); // the candidate's type
    const Catalog catalog{std::move(types)};

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 50.0)); // equal deadlines: a demand_order
    active.push_back(task_of(1, 1, 0.0, 50.0)); // tie broken only by uid
    active[0].resource = 0;
    active[1].resource = 1;

    ArrivalContext context;
    context.now = 0;
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(100, 2, 0.0, 25.0);
    context.predicted = {PredictedTask{1, ms(5.0), ms(30.0)}}; // predicted in the *other* island

    for (const Kind kind : {Kind::heuristic, Kind::exact}) {
        WholeInstanceRM reference(kind);
        const std::unique_ptr<ResourceManager> sharded = make_rm(kind);
        const Decision a = reference.decide(context);
        const Decision b = sharded->decide(context);
        expect_same_decision(a, b, sharded->name().c_str(), 0);
        // The world is feasible by construction; pin the full placement so
        // the tie can never silently flip both paths the same wrong way.
        ASSERT_TRUE(b.admitted) << sharded->name();
        ASSERT_EQ(b.assignments.size(), 3u) << sharded->name();
        for (const TaskAssignment& assignment : b.assignments) {
            if (assignment.uid == 0) {
                EXPECT_EQ(assignment.resource, 0u);
            }
            if (assignment.uid == 1) {
                EXPECT_EQ(assignment.resource, 1u);
            }
            if (assignment.uid == 100) {
                EXPECT_EQ(assignment.resource, 0u);
            }
        }
    }
}

/// The degenerate partition: on the motivational platform every type can
/// reach every resource, so the executability graph is one connected
/// component — the RMs must solve the whole instance in place, never
/// entering shard_solve, and reproduce the reference exactly.
TEST(ShardDirected, OneGroupPlatformNeverEntersShardSolve) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const Platform platform = make_motivational_platform();
        CatalogParams params;
        params.type_count = 8;
        Rng catalog_rng = Rng(seed).derive(1);
        const Catalog catalog = generate_catalog(platform, params, catalog_rng);

        ShardPartition partition;
        partition.rebuild(platform, catalog);
        ASSERT_EQ(partition.group_count(), 1u);
        for (const Resource& resource : platform.resources())
            EXPECT_EQ(partition.group_of(resource.id()), 0u);

        Rng rng(seed);
        std::vector<ActiveTask> active;
        const std::size_t task_count = rng.index(5);
        for (std::size_t j = 0; j < task_count; ++j) {
            ActiveTask task = task_of(j, rng.index(catalog.size()), 0.0, 0.0);
            const TaskType& type = catalog.type(task.type);
            task.absolute_deadline = ms(rng.uniform(10.0, 120.0));
            task.resource =
                type.executable_resources()[rng.index(type.executable_resources().size())];
            active.push_back(task);
        }
        ArrivalContext context;
        context.now = ms(5.0);
        context.platform = &platform;
        context.catalog = &catalog;
        context.active = active;
        context.candidate = task_of(100, rng.index(catalog.size()), 5.0, rng.uniform(8.0, 90.0));
        const std::vector<BatchItem> items = {{context.candidate, {}},
                                              {task_of(101, rng.index(catalog.size()), 5.0,
                                                       rng.uniform(8.0, 90.0)),
                                               {}}};
        BatchArrivalContext batch;
        batch.now = context.now;
        batch.platform = &platform;
        batch.catalog = &catalog;
        batch.active = active;
        batch.items = items;

        for (const Kind kind : {Kind::heuristic, Kind::exact}) {
            WholeInstanceRM reference(kind);
            const std::unique_ptr<ResourceManager> rm = make_rm(kind);
            obs::StageStats stats;
            Decision single;
            std::vector<Decision> batched;
            {
#ifdef RMWP_OBS
                const obs::StageStatsScope scope(&stats);
#endif
                single = rm->decide(context);
                rm->decide_batch(batch, batched);
            }
            expect_same_decision(reference.decide(context), single, rm->name().c_str(), seed);
            std::vector<Decision> expected;
            reference.decide_batch(batch, expected);
            ASSERT_EQ(batched.size(), expected.size());
            for (std::size_t m = 0; m < expected.size(); ++m)
                expect_same_decision(expected[m], batched[m], rm->name().c_str(), seed, m);
#ifdef RMWP_OBS
            EXPECT_GT(stats.cell(obs::Stage::solve).calls, 0u) << rm->name();
#endif
            EXPECT_EQ(stats.cell(obs::Stage::shard_solve).calls, 0u) << rm->name();
            EXPECT_EQ(stats.cell(obs::Stage::shard_merge).calls, 0u) << rm->name();
        }
    }
}

/// Node budgets bind per solve, so once the exact search runs out of nodes
/// the per-group decision may differ from the whole-instance one
/// (DESIGN.md §15).  decide() and decide_batch() decompose the same way,
/// so a one-item batch must still reproduce decide() exactly.
TEST(ShardDirected, ExactDecideEqualsBatchOfOneWhenTheNodeBudgetBinds) {
    ExactRM::Options options;
    options.node_limit = 6;
    std::size_t bound_worlds = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const ShardWorld world(seed);
        const PlanInstance whole = PlanInstance::build(world.context, world.context.predicted.size());
        bool proven = true;
        (void)ExactRM::optimize(whole, options, &proven);
        if (proven) continue; // the budget does not bind on this world
        ++bound_worlds;

        ExactRM rm(options);
        const Decision single = rm.decide(world.context);
        const std::vector<BatchItem> items = {{world.context.candidate, world.context.predicted}};
        std::vector<Decision> batched;
        rm.decide_batch(world.batch_of(items), batched);
        ASSERT_EQ(batched.size(), 1u);
        expect_same_decision(single, batched.front(), "exact budget-bound", seed);
    }
    EXPECT_GT(bound_worlds, 0u);
}

// ---- partition properties ----

TEST(ShardPartitionProperty, GroupsAreTheExecutabilityComponents) {
    const Platform platform = make_islands_platform();
    CatalogParams params;
    params.type_count = 16;
    Rng rng = Rng(7).derive(1);
    const Catalog catalog = generate_partitioned_catalog(platform, params, kIslands, rng);

    ShardPartition partition;
    partition.rebuild(platform, catalog);
    EXPECT_EQ(partition.group_count(), kIslands);

    // Every type's executable resources share one group, and types assigned
    // to the same island land in the same group.
    std::vector<std::size_t> island_group(kIslands, static_cast<std::size_t>(-1));
    for (TaskTypeId t = 0; t < catalog.size(); ++t) {
        const auto& resources = catalog.type(t).executable_resources();
        ASSERT_FALSE(resources.empty());
        const std::size_t group = partition.group_of(resources.front());
        for (const ResourceId r : resources) EXPECT_EQ(partition.group_of(r), group);
        std::size_t& expected = island_group[t % kIslands];
        if (expected == static_cast<std::size_t>(-1)) expected = group;
        EXPECT_EQ(group, expected) << "type " << t;
    }

    // Operating points share their physical core's group.
    for (const Resource& resource : platform.resources())
        EXPECT_EQ(partition.group_of(resource.id()), partition.group_of(resource.physical()));

}

TEST(ShardPartitionProperty, RebuildIsDeterministicAndReusable) {
    const Platform platform = make_islands_platform();
    CatalogParams params;
    params.type_count = 16;
    Rng rng = Rng(11).derive(1);
    const Catalog catalog = generate_partitioned_catalog(platform, params, kIslands, rng);

    ShardPartition fresh;
    fresh.rebuild(platform, catalog);
    ShardPartition reused;
    // A pooled partition must forget a previous, differently-shaped world.
    const Platform other = make_motivational_platform();
    CatalogParams other_params;
    other_params.type_count = 4;
    Rng other_rng = Rng(3).derive(1);
    const Catalog other_catalog = generate_catalog(other, other_params, other_rng);
    reused.rebuild(other, other_catalog);
    reused.rebuild(platform, catalog);

    ASSERT_EQ(fresh.group_count(), reused.group_count());
    for (const Resource& resource : platform.resources())
        EXPECT_EQ(fresh.group_of(resource.id()), reused.group_of(resource.id()));

    // Dense ids in smallest-resource-id order: group 0 contains resource 0,
    // and the first resource of each group id ascends.
    std::vector<ResourceId> first_of(fresh.group_count(), platform.size());
    for (const Resource& resource : platform.resources()) {
        ResourceId& first = first_of[fresh.group_of(resource.id())];
        first = std::min(first, resource.id());
    }
    for (std::size_t g = 1; g < first_of.size(); ++g) EXPECT_LT(first_of[g - 1], first_of[g]);
}

// ---- demand-order properties (the ground the per-group probes stand on) ----

std::vector<ScheduleItem> random_items(std::uint64_t seed, std::size_t count) {
    // Coarse value grids force plenty of deadline/release ties, so the uid
    // tie-break actually decides orderings.
    Rng rng(seed);
    std::vector<ScheduleItem> items;
    for (std::size_t k = 0; k < count; ++k) {
        ScheduleItem item;
        item.uid = k;
        item.abs_deadline = ms(10.0 * static_cast<double>(1 + rng.index(4)));
        item.release = ms(2.0 * static_cast<double>(rng.index(3)));
        item.duration = ms(rng.uniform(1.0, 5.0));
        items.push_back(item);
    }
    rng.shuffle(items);
    return items;
}

TEST(DemandOrderProperty, TotalOrderSurvivesGroupSplitAndMerge) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        std::vector<ScheduleItem> items = random_items(seed, 64);

        // Totality and antisymmetry over distinct items (uids are unique).
        Rng pick(seed ^ 0x70701ULL);
        for (int probe = 0; probe < 64; ++probe) {
            const ScheduleItem& a = items[pick.index(items.size())];
            const ScheduleItem& b = items[pick.index(items.size())];
            if (a.uid == b.uid) continue;
            EXPECT_NE(demand_order(a, b), demand_order(b, a));
        }

        std::vector<ScheduleItem> full = items;
        std::sort(full.begin(), full.end(), demand_order);

        // Split into 4 "groups" by an arbitrary key, sort each, then merge:
        // the result must be the full sort, element for element — the exact
        // shape of a per-group sorted state re-unified by the merge.
        std::vector<std::vector<ScheduleItem>> groups(4);
        for (const ScheduleItem& item : items) groups[item.uid % 4].push_back(item);
        std::vector<ScheduleItem> merged;
        for (std::vector<ScheduleItem>& group : groups) {
            std::sort(group.begin(), group.end(), demand_order);
            std::vector<ScheduleItem> next;
            std::merge(merged.begin(), merged.end(), group.begin(), group.end(),
                       std::back_inserter(next), demand_order);
            merged = std::move(next);
        }
        ASSERT_EQ(merged.size(), full.size());
        for (std::size_t k = 0; k < full.size(); ++k)
            EXPECT_EQ(merged[k].uid, full[k].uid) << "seed " << seed << " slot " << k;
    }
}

TEST(DemandOrderProperty, IncrementalInsertEqualsFullResort) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const std::vector<ScheduleItem> items = random_items(seed ^ 0x1245ULL, 48);

        std::vector<ScheduleItem> incremental;
        for (const ScheduleItem& item : items) {
            const std::size_t at = insert_demand_ordered(incremental, item);
            ASSERT_LT(at, incremental.size());
            EXPECT_EQ(incremental[at].uid, item.uid);
        }

        std::vector<ScheduleItem> resorted = items;
        std::sort(resorted.begin(), resorted.end(), demand_order);
        ASSERT_EQ(incremental.size(), resorted.size());
        for (std::size_t k = 0; k < resorted.size(); ++k)
            EXPECT_EQ(incremental[k].uid, resorted[k].uid) << "seed " << seed << " slot " << k;
    }
}

// ---- serve level ----

void expect_same_trace(const TraceResult& a, const TraceResult& b) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.fault_aborted, b.fault_aborted);
    EXPECT_EQ(a.total_energy, b.total_energy);
    EXPECT_EQ(a.migration_energy, b.migration_energy);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.plans_with_prediction, b.plans_with_prediction);
    EXPECT_EQ(a.resource_outages, b.resource_outages);
    EXPECT_EQ(a.throttle_events, b.throttle_events);
    EXPECT_EQ(a.rescue_activations, b.rescue_activations);
    EXPECT_EQ(a.rescued, b.rescued);
    EXPECT_EQ(a.rescue_migrations, b.rescue_migrations);
}

TEST(ShardServe, PerGroupServiceIsBitIdenticalAndRecordsMergedLatency) {
    const auto run_once = [](ResourceManager& rm, obs::StageStats* stats) {
        const Platform platform = make_islands_platform();
        CatalogParams params;
        params.type_count = 16;
        Rng catalog_rng = Rng(5).derive(1);
        const Catalog catalog = generate_partitioned_catalog(platform, params, kIslands,
                                                             catalog_rng);
        SyntheticSourceParams source_params;
        source_params.seed = 9;
        SyntheticArrivalSource source(catalog, source_params);
        OnlinePredictor predictor(catalog);
        ServeConfig config;
        config.monitor = false;
        config.max_arrivals = 400;
        config.faults.outage_rate = 0.25;
        config.faults.throttle_rate = 0.2;
        config.fault_seed = 17;
        config.fault_chunk = ms(500.0);
        config.sim.execution_seed = 21;
        config.sim.execution_time_factor_min = 0.7;
        config.stage_stats_out = stats;
        return run_serve(platform, catalog, rm, predictor, nullptr, source, config);
    };

    obs::StageStats stats;
    WholeInstanceRM reference(Kind::heuristic);
    HeuristicRM rm;
    const ServeResult whole = run_once(reference, nullptr);
    const ServeResult by_group = run_once(rm, &stats);

    EXPECT_EQ(whole.exit_code, 0);
    EXPECT_EQ(by_group.exit_code, 0);
    EXPECT_EQ(whole.arrivals, by_group.arrivals);
    EXPECT_EQ(whole.shed, by_group.shed);
    expect_same_trace(whole.result, by_group.result);
    EXPECT_GT(by_group.result.rescue_activations + by_group.result.throttle_events, 0u);
    // The online predictor scores itself identically along both paths.
    EXPECT_GT(whole.predictor_predictions, 0u);
    EXPECT_EQ(whole.predictor_predictions, by_group.predictor_predictions);
    EXPECT_EQ(whole.predictor_hits, by_group.predictor_hits);

    // The latency HDR records after the cross-group merge — every quantile
    // covers whole decisions, so the ladder of quantiles is monotone and
    // strictly positive on both paths.
    for (const ServeResult* run : {&whole, &by_group}) {
        EXPECT_GT(run->latency_p50_us, 0.0);
        EXPECT_LE(run->latency_p50_us, run->latency_p90_us);
        EXPECT_LE(run->latency_p90_us, run->latency_p99_us);
        EXPECT_LE(run->latency_p99_us, run->latency_p999_us);
    }

#ifdef RMWP_OBS
    // Per-group stage attribution lands on the engine thread, where serve's
    // StageStatsScope is installed.
    EXPECT_GT(stats.cell(obs::Stage::shard_solve).calls, 0u);
    EXPECT_GT(stats.cell(obs::Stage::shard_merge).calls, 0u);
    EXPECT_GE(stats.cell(obs::Stage::shard_solve).calls,
              stats.cell(obs::Stage::shard_merge).calls);
#endif
}

} // namespace
} // namespace rmwp
