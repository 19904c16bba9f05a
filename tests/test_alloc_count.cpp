// Heap-allocation budget for the admission hot path (DESIGN.md §13).
//
// The solver arenas (PlanScratch, PlanPool, the EDF buffers) make
// steady-state admission allocation-free except for the Decision's
// assignments vector — the one output that must outlive the call.  This
// test pins that budget with counting global operator new/delete
// overrides, so a future change that reintroduces per-decision allocations
// (a copied mapping, a rebuilt schedule buffer, a temporary set) fails
// loudly instead of silently costing throughput.  The simulator's
// post-decision re-plan (DESIGN.md §11) is pinned the same way, at zero.
//
// The counters are process-global, so this binary holds only this test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "admission_reference.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/predictor.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

struct AllocationCount {
    std::uint64_t begin = 0;
    void start() { begin = g_allocations.load(std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t stop() const {
        return g_allocations.load(std::memory_order_relaxed) - begin;
    }
};

} // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace rmwp {
namespace {

TEST(AllocCount, SteadyStateDecideAllocatesOnlyTheDecisionOutput) {
#ifdef RMWP_AUDIT
    // The audit drift gates deliberately rebuild instances from scratch to
    // cross-check the arenas; the allocation budget is a contract of the
    // production (no-audit) configuration only.
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_motivational_platform();
    CatalogParams params;
    params.type_count = 8;
    Rng catalog_rng = Rng(3).derive(1);
    const Catalog catalog = generate_catalog(platform, params, catalog_rng);

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 60.0));
    active.push_back(task_of(1, 1, 0.0, 80.0));
    ArrivalContext context;
    context.now = ms(5.0);
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(100, 2, 5.0, 50.0);
    context.predicted = {PredictedTask{3, ms(9.0), ms(40.0)}};

    HeuristicRM rm;
    // Warm the thread-local arenas (PlanScratch, PlanPool, EDF buffers):
    // the first decision may size every buffer.
    (void)rm.decide(context);

    constexpr int kRounds = 200;
    AllocationCount count;
    count.start();
    std::size_t admitted = 0;
    for (int round = 0; round < kRounds; ++round) {
        const Decision decision = rm.decide(context);
        if (decision.admitted) ++admitted;
    }
    const std::uint64_t allocations = count.stop();
    EXPECT_EQ(admitted, static_cast<std::size_t>(kRounds));

    // Budget: one allocation per decision — the admitted Decision's
    // assignments vector.  Everything else (instance build, Algorithm 1's
    // matrices, schedulability probes, the returned mapping span) runs on
    // reused arenas.
    EXPECT_LE(allocations, static_cast<std::uint64_t>(kRounds))
        << "steady-state decide() regressed to " << allocations << " allocations over "
        << kRounds << " rounds";
    EXPECT_GT(allocations, 0u); // the output vector itself is real
}

TEST(AllocCount, BatchDecisionAmortisesSetupAllocations) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_motivational_platform();
    CatalogParams params;
    params.type_count = 8;
    Rng catalog_rng = Rng(3).derive(1);
    const Catalog catalog = generate_catalog(platform, params, catalog_rng);

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 60.0));
    std::vector<BatchItem> items;
    for (std::size_t m = 0; m < 8; ++m)
        items.push_back({task_of(100 + m, (m % 4) + 1, 5.0, 50.0 + 2.0 * static_cast<double>(m)),
                         {}});
    BatchArrivalContext batch;
    batch.now = ms(5.0);
    batch.platform = &platform;
    batch.catalog = &catalog;
    batch.active = active;
    batch.items = items;

    HeuristicRM rm;
    std::vector<Decision> out;
    rm.decide_batch(batch, out); // warm-up
    ASSERT_EQ(out.size(), items.size());

    constexpr int kRounds = 100;
    AllocationCount count;
    count.start();
    for (int round = 0; round < kRounds; ++round) {
        rm.decide_batch(batch, out);
        ASSERT_EQ(out.size(), items.size());
    }
    const std::uint64_t allocations = count.stop();

    // Budget per batch of 8: one assignments vector per admitted item —
    // the BatchPlanner's working set, pooled instance, and spare shells
    // live on a thread-local arena, so batch setup itself is
    // allocation-free in steady state.
    // (+8 absorbs one-off arena growth that can still trail the warm-up
    // batch; it does not scale with kRounds.)
    const std::uint64_t budget = static_cast<std::uint64_t>(kRounds) * items.size() + 8;
    EXPECT_LE(allocations, budget)
        << "decide_batch allocated " << allocations << " times over " << kRounds
        << " batches of " << items.size();
}

// ---- admission decomposed by resource group (DESIGN.md §15) ----

TEST(AllocCount, PerGroupSteadyStateKeepsTheOneAllocationBudget) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_islands_platform();
    CatalogParams params;
    params.type_count = 16;
    Rng catalog_rng = Rng(5).derive(1);
    const Catalog catalog = generate_partitioned_catalog(platform, params, 4, catalog_rng);

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 90.0));
    active.push_back(task_of(1, 1, 0.0, 110.0));
    active.push_back(task_of(2, 2, 0.0, 130.0));
    for (ActiveTask& task : active)
        task.resource = catalog.type(task.type).executable_resources().front();
    ArrivalContext context;
    context.now = ms(5.0);
    context.platform = &platform;
    context.catalog = &catalog;
    context.active = active;
    context.candidate = task_of(100, 3, 5.0, 80.0);
    context.predicted = {PredictedTask{4, ms(9.0), ms(60.0)}};

    HeuristicRM rm;
    // Warm-up sizes the partition, the per-group sub-instances, and the
    // solver arenas for every group — and pins the decision to the
    // whole-instance reference.
    expect_same_decision(WholeInstanceRM(WholeInstanceRM::Solver::heuristic).decide(context),
                         rm.decide(context), "per-group decide", 0);

    constexpr int kRounds = 200;
    AllocationCount count;
    count.start();
    std::size_t admitted = 0;
    for (int round = 0; round < kRounds; ++round) {
        const Decision decision = rm.decide(context);
        if (decision.admitted) ++admitted;
    }
    const std::uint64_t allocations = count.stop();
    EXPECT_EQ(admitted, static_cast<std::size_t>(kRounds));

    // Same budget as the one-group path: one allocation per decision —
    // the Decision's assignments vector.  Partition rebuilds, group
    // sub-instances and group mappings all reuse pooled capacity.
    EXPECT_LE(allocations, static_cast<std::uint64_t>(kRounds))
        << "per-group decide() regressed to " << allocations << " allocations over " << kRounds
        << " rounds";
    EXPECT_GT(allocations, 0u);
}

TEST(AllocCount, PerGroupBatchOfEightAcrossFourGroupsStaysPinned) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_islands_platform();
    CatalogParams params;
    params.type_count = 16;
    Rng catalog_rng = Rng(5).derive(1);
    const Catalog catalog = generate_partitioned_catalog(platform, params, 4, catalog_rng);

    std::vector<ActiveTask> active;
    active.push_back(task_of(0, 0, 0.0, 120.0));
    active.front().resource = catalog.type(0).executable_resources().front();
    // Eight same-instant arrivals spanning all four islands (type m % 16
    // lives in island (m % 16) % 4), so the batch loop exercises every
    // group and the cross-item verdict cache.
    std::vector<BatchItem> items;
    for (std::size_t m = 0; m < 8; ++m)
        items.push_back({task_of(100 + m, (m * 3 + 1) % 16, 5.0,
                                 90.0 + 4.0 * static_cast<double>(m)),
                         {}});
    BatchArrivalContext batch;
    batch.now = ms(5.0);
    batch.platform = &platform;
    batch.catalog = &catalog;
    batch.active = active;
    batch.items = items;

    HeuristicRM rm;
    std::vector<Decision> out;
    rm.decide_batch(batch, out); // warm-up
    ASSERT_EQ(out.size(), items.size());
    std::vector<Decision> expected;
    WholeInstanceRM(WholeInstanceRM::Solver::heuristic).decide_batch(batch, expected);
    ASSERT_EQ(expected.size(), items.size());
    for (std::size_t m = 0; m < items.size(); ++m)
        expect_same_decision(expected[m], out[m], "per-group batch", 0, m);

    constexpr int kRounds = 100;
    AllocationCount count;
    count.start();
    for (int round = 0; round < kRounds; ++round) {
        rm.decide_batch(batch, out);
        ASSERT_EQ(out.size(), items.size());
    }
    const std::uint64_t allocations = count.stop();

    // Explicit pinned budget for the 8-across-4 shape: one assignments
    // vector per admitted item plus a constant slack for arena growth that
    // can trail the warm-up batch (cache-entry mappings, tracked-uid
    // capacity).  The slack must not scale with kRounds.
    const std::uint64_t budget = static_cast<std::uint64_t>(kRounds) * items.size() + 16;
    EXPECT_LE(allocations, budget)
        << "per-group decide_batch allocated " << allocations << " times over " << kRounds
        << " batches of " << items.size();
}

// ---- engine re-plan (DESIGN.md §11) ----

TEST(AllocCount, SteadyStateRebuildIsAllocationFree) {
#ifdef RMWP_AUDIT
    GTEST_SKIP() << "allocation budgets are pinned on no-audit builds";
#endif
    const Platform platform = make_motivational_platform();
    CatalogParams params;
    params.type_count = 8;
    Rng catalog_rng = Rng(3).derive(1);
    const Catalog catalog = generate_catalog(platform, params, catalog_rng);

    // Execution-time variation makes every completion re-plan, so draining
    // completions runs the engine's advance and rebuild — and neither the
    // RM nor the predictor.  Factors just below 1 keep every round's plans
    // the same shape.
    SimOptions options;
    options.execution_time_factor_min = 0.999;
    options.execution_seed = 1;
    HeuristicRM rm;
    NullPredictor off;
    SimEngine engine(platform, catalog, rm, off, nullptr, options);
    engine.begin_stream();

    // One round: the same six arrivals, shifted by a period long enough
    // for the round to drain completely.
    constexpr Time kPeriod = ms(1024);
    TaskUid uid = 0;
    const auto feed_round = [&](int round) {
        for (std::size_t k = 0; k < 6; ++k) {
            const Time arrival = kPeriod * round + ms(0.5 * static_cast<double>(k));
            const Request request{arrival, static_cast<TaskTypeId>(k % 8), ms(400)};
            (void)engine.stream_arrival(request, uid++, arrival);
        }
    };
    // Warm-up round: sizes the schedule, item and cursor buffers.
    feed_round(0);
    engine.drain_until(kPeriod);
    ASSERT_EQ(engine.active_count(), 0u);

    feed_round(1);
    const std::size_t admitted = engine.active_count();
    ASSERT_GT(admitted, 1u);
    AllocationCount count;
    count.start();
    engine.drain_until(2 * kPeriod); // one advance + rebuild per completion
    const std::uint64_t allocations = count.stop();
    EXPECT_EQ(engine.active_count(), 0u);
    EXPECT_EQ(allocations, 0u) << admitted << " steady-state completion re-plans allocated "
                               << allocations << " times";
}

} // namespace
} // namespace rmwp
