// Differential tests for batched admission (DESIGN.md §13): the
// decide_batch contract at every layer of the stack.
//
//   * RM level — a batch of one is bit-identical to decide(), and a
//     multi-item batch is bit-identical to the base class's sequential
//     emulation, for every manager that overrides the batch entry point
//     (and for MilpRM, which inherits it);
//   * engine level — stream_arrival_batch over coalesced same-instant
//     groups leaves the same simulation state as feeding the members
//     through stream_arrival one by one at the same wake;
//   * serve level — run_serve with batch_window = 0 (coalesce identical
//     wakes) matches the unbatched loop on a bursty synthetic stream with
//     injected faults, execution-time variation, and the online predictor.
//
// Batched runs count one activation per coalesced group, so the engine- and
// serve-level comparisons check every simulated-system field *except*
// activations (and the audit counters, which also scale per activation).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "admission_reference.hpp"
#include "core/baseline_rm.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/milp_rm.hpp"
#include "predict/online.hpp"
#include "serve/serve.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

// ---- shared fixtures ----

/// Randomized single-arrival context on the motivational platform (the
/// test_core_rm.cpp idiom): a few active tasks in assorted states plus a
/// fresh candidate and (usually) one predicted request.
struct RandomWorld {
    Platform platform = make_motivational_platform();
    Catalog catalog;
    std::vector<ActiveTask> active;
    ArrivalContext context;

    explicit RandomWorld(std::uint64_t seed) : catalog([&] {
        CatalogParams params;
        params.type_count = 8;
        Rng catalog_rng = Rng(seed).derive(1);
        return generate_catalog(platform, params, catalog_rng);
    }()) {
        Rng rng(seed);
        const std::size_t task_count = rng.index(5);
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
        if (rng.bernoulli(0.7))
            context.predicted = {PredictedTask{rng.index(catalog.size()),
                                               ms(5.0 + rng.uniform(0.0, 10.0)),
                                               ms(rng.uniform(6.0, 60.0))}};
    }

    /// A follow-up candidate arriving at the same instant as the first.
    [[nodiscard]] BatchItem item(TaskUid uid, Rng& rng) const {
        BatchItem item;
        item.candidate = task_of(uid, rng.index(catalog.size()), 5.0, rng.uniform(8.0, 90.0));
        if (rng.bernoulli(0.6))
            item.predicted = {PredictedTask{rng.index(catalog.size()),
                                            ms(5.0 + rng.uniform(0.0, 10.0)),
                                            ms(rng.uniform(6.0, 60.0))}};
        return item;
    }
};

/// Every simulated-system field except the per-activation counters
/// (activations, audit_*): a coalesced group is one activation where the
/// sequential run counts one per member, but the resulting simulation state
/// must match bit-exactly.
void expect_equivalent_modulo_activations(const TraceResult& a, const TraceResult& b) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.fault_aborted, b.fault_aborted);
    EXPECT_EQ(a.total_energy, b.total_energy);
    EXPECT_EQ(a.migration_energy, b.migration_energy);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.critical_energy, b.critical_energy);
    EXPECT_EQ(a.plans_with_prediction, b.plans_with_prediction);
    EXPECT_EQ(a.resource_outages, b.resource_outages);
    EXPECT_EQ(a.throttle_events, b.throttle_events);
    EXPECT_EQ(a.rescue_activations, b.rescue_activations);
    EXPECT_EQ(a.rescued, b.rescued);
    EXPECT_EQ(a.rescue_migrations, b.rescue_migrations);
    EXPECT_EQ(a.degraded_energy, b.degraded_energy);
    EXPECT_EQ(a.reference_energy, b.reference_energy);
}

// ---- RM level ----

class BatchContract : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchContract, BatchOfOneIsBitIdenticalToDecide) {
    const RandomWorld world(GetParam());

    BatchItem only;
    only.candidate = world.context.candidate;
    only.predicted = world.context.predicted;
    BatchArrivalContext batch;
    batch.now = world.context.now;
    batch.platform = world.context.platform;
    batch.catalog = world.context.catalog;
    batch.active = world.context.active;
    batch.items = std::span<const BatchItem>(&only, 1);

    HeuristicRM heuristic;
    ExactRM exact;
    BaselineRM baseline;
    MilpRM milp;
    ResourceManager* const rms[] = {&heuristic, &exact, &baseline, &milp};
    for (ResourceManager* rm : rms) {
        const Decision single = rm->decide(world.context);
        std::vector<Decision> batched;
        rm->decide_batch(batch, batched);
        ASSERT_EQ(batched.size(), 1u) << rm->name();
        expect_same_decision(single, batched[0], rm->name().c_str(), GetParam());
    }
}

TEST_P(BatchContract, MultiItemBatchMatchesSequentialEmulation) {
    const RandomWorld world(GetParam());
    Rng rng(GetParam() ^ 0xb417c0ffee);

    std::vector<BatchItem> items;
    items.push_back({world.context.candidate, world.context.predicted});
    const std::size_t extra = 1 + rng.index(3);
    for (std::size_t m = 0; m < extra; ++m)
        items.push_back(world.item(101 + m, rng));

    BatchArrivalContext batch;
    batch.now = world.context.now;
    batch.platform = world.context.platform;
    batch.catalog = world.context.catalog;
    batch.active = world.context.active;
    batch.items = items;

    HeuristicRM heuristic;
    ExactRM exact;
    BaselineRM baseline;
    ResourceManager* const rms[] = {&heuristic, &exact, &baseline};
    for (ResourceManager* rm : rms) {
        std::vector<Decision> fast;
        rm->decide_batch(batch, fast);
        // The documented semantics: sequential decides over a working copy
        // of the active set — exactly what the base class implements.
        std::vector<Decision> reference;
        rm->ResourceManager::decide_batch(batch, reference);
        ASSERT_EQ(fast.size(), items.size()) << rm->name();
        ASSERT_EQ(reference.size(), items.size()) << rm->name();
        for (std::size_t m = 0; m < items.size(); ++m)
            expect_same_decision(reference[m], fast[m], rm->name().c_str(), GetParam(), m);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchContract, ::testing::Range<std::uint64_t>(0, 60));

// ---- engine level ----

struct StreamWorld {
    Platform platform = [] {
        PlatformBuilder builder;
        builder.add_cpu("CPU1");
        builder.add_cpu("CPU2");
        builder.add_cpu("CPU3");
        builder.add_gpu("GPU");
        return builder.build();
    }();
    Catalog catalog = [this] {
        CatalogParams params;
        params.type_count = 20;
        Rng rng(11);
        return generate_catalog(platform, params, rng);
    }();
};

TEST(EngineBatch, CoalescedGroupsMatchSequentialArrivalsAtTheSameWake) {
    StreamWorld world;
    SimOptions options;
    options.execution_seed = 21;
    options.execution_time_factor_min = 0.7;

    // Bursty arrivals: groups of up to 5 requests collapsed onto one
    // shared arrival instant (the coalescing the serve loop performs).
    SyntheticSourceParams params;
    params.seed = 9;
    SyntheticArrivalSource source(world.catalog, params);
    std::vector<std::vector<Request>> groups;
    Rng shape(123);
    for (int k = 0; k < 120; ++k) {
        const std::size_t burst = 1 + shape.index(5);
        std::vector<Request> group;
        for (std::size_t m = 0; m < burst; ++m) {
            std::optional<Request> request = source.next();
            ASSERT_TRUE(request.has_value());
            if (!group.empty()) request->arrival = group.front().arrival;
            group.push_back(*request);
        }
        groups.push_back(std::move(group));
    }

    HeuristicRM sequential_rm;
    OnlinePredictor sequential_predictor(world.catalog);
    SimEngine sequential(world.platform, world.catalog, sequential_rm, sequential_predictor,
                         nullptr, options);
    sequential.begin_stream();

    HeuristicRM batched_rm;
    OnlinePredictor batched_predictor(world.catalog);
    SimEngine batched(world.platform, world.catalog, batched_rm, batched_predictor, nullptr,
                      options);
    batched.begin_stream();

    TaskUid uid = 0;
    for (const std::vector<Request>& group : groups) {
        const Time wake = group.front().arrival;
        std::vector<StreamArrival> coalesced;
        for (const Request& request : group) {
            (void)sequential.stream_arrival(request, uid, wake);
            coalesced.push_back({request, uid});
            ++uid;
        }
        (void)batched.stream_arrival_batch(coalesced, wake);
    }

    const TraceResult a = sequential.finish_stream();
    const TraceResult b = batched.finish_stream();
    expect_equivalent_modulo_activations(a, b);
    // The sequential run activates once per request, the batched one once
    // per group — the amortisation the batch path exists for.
    EXPECT_EQ(a.activations, a.requests);
    EXPECT_EQ(b.activations, groups.size());
}

// ---- serve level ----

/// Collapses runs of `burst` consecutive synthetic requests onto the first
/// member's arrival instant, so batch_window = 0 coalesces real multi-item
/// groups (mirrors bench_admission_throughput's burst cells).
class BurstSource final : public ArrivalSource {
public:
    BurstSource(const Catalog& catalog, const SyntheticSourceParams& params, std::size_t burst)
        : inner_(catalog, params), burst_(burst) {}

    [[nodiscard]] std::optional<Request> next() override {
        std::optional<Request> request = inner_.next();
        if (!request.has_value()) return std::nullopt;
        if (in_burst_ == 0) {
            burst_arrival_ = request->arrival;
            in_burst_ = burst_;
        } else {
            request->arrival = burst_arrival_;
        }
        --in_burst_;
        return request;
    }
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor&) override {
        throw std::runtime_error("BurstSource is not seekable");
    }

private:
    SyntheticArrivalSource inner_;
    std::size_t burst_;
    std::size_t in_burst_ = 0;
    Time burst_arrival_ = 0.0;
};

TEST(ServeBatch, BatchWindowZeroMatchesUnbatchedUnderFaultsAndPrediction) {
    const auto run_once = [](Time batch_window) {
        StreamWorld world;
        SyntheticSourceParams params;
        params.seed = 9;
        BurstSource source(world.catalog, params, 3);
        HeuristicRM rm;
        OnlinePredictor predictor(world.catalog);
        ServeConfig config;
        config.monitor = false;
        config.max_arrivals = 600;
        config.batch_window = batch_window;
        config.faults.outage_rate = 0.3;
        config.faults.throttle_rate = 0.2;
        config.fault_seed = 17;
        config.fault_chunk = ms(500.0);
        config.sim.execution_seed = 21;
        config.sim.execution_time_factor_min = 0.7;
        return run_serve(world.platform, world.catalog, rm, predictor, nullptr, source, config);
    };

    const ServeResult unbatched = run_once(-1.0);
    const ServeResult batched = run_once(0.0);

    EXPECT_EQ(batched.exit_code, 0);
    EXPECT_EQ(unbatched.arrivals, batched.arrivals);
    EXPECT_EQ(unbatched.shed, batched.shed);
    expect_equivalent_modulo_activations(unbatched.result, batched.result);
    // Three-request bursts coalesce: strictly fewer activations, same
    // simulation.  The faults above exercised the rescue path in both runs.
    EXPECT_LT(batched.result.activations, unbatched.result.activations);
    EXPECT_GT(unbatched.result.rescue_activations + unbatched.result.throttle_events, 0u);
    // The online predictor scores itself identically along both paths.
    EXPECT_GT(unbatched.predictor_predictions, 0u);
    EXPECT_EQ(unbatched.predictor_predictions, batched.predictor_predictions);
    EXPECT_EQ(unbatched.predictor_hits, batched.predictor_hits);
    EXPECT_LE(unbatched.predictor_hits, unbatched.predictor_predictions);
}

} // namespace
} // namespace rmwp
