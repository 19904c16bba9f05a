// Integration tests for the discrete-event simulator: the event kernel,
// execution/energy accounting, migration bookkeeping, the overhead-stall
// model, and cross-RM invariants on realistic workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/oracle.hpp"
#include "obs/trace_sink.hpp"
#include "predict/predictor.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

// ---- event kernel ----

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue queue;
    queue.schedule(ms(3.0), 0, 30);
    queue.schedule(ms(1.0), 0, 10);
    queue.schedule(ms(2.0), 0, 20);
    EXPECT_EQ(queue.pop().payload, 10u);
    EXPECT_EQ(queue.pop().payload, 20u);
    EXPECT_EQ(queue.pop().payload, 30u);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
    EventQueue queue;
    for (std::uint64_t i = 0; i < 5; ++i) queue.schedule(ms(7.0), 0, i);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(queue.pop().payload, i);
}

TEST(EventQueue, PrecedesOrdersByTimeThenSequence) {
    EventQueue queue;
    queue.schedule(ms(2.0), 0, 1);
    const std::uint64_t stamp = queue.next_sequence(); // a virtual event stamped here
    queue.schedule(ms(2.0), 0, 2);
    EXPECT_TRUE(queue.precedes(ms(3.0), stamp));
    EXPECT_FALSE(queue.precedes(ms(1.0), stamp));
    EXPECT_TRUE(queue.precedes(ms(2.0), stamp)); // scheduled before the stamp
    (void)queue.pop();
    EXPECT_FALSE(queue.precedes(ms(2.0), stamp)); // scheduled after it
    // Dispatches outside the queue seal the past too.
    queue.mark_dispatched(ms(2.5));
    EXPECT_THROW(queue.schedule(ms(2.4), 0, 3), precondition_error);
}

TEST(EventQueue, NextTimePeeks) {
    EventQueue queue;
    queue.schedule(ms(9.0), 0, 1);
    EXPECT_EQ(queue.next_time(), ms(9));
    EXPECT_EQ(queue.scheduled_count(), 1u);
}

TEST(EventQueue, EmptyPopThrows) {
    EventQueue queue;
    EXPECT_THROW(std::ignore = queue.pop(), precondition_error);
}

// ---- single-task accounting ----

struct MiniWorld {
    Platform platform = make_motivational_platform();
    Catalog catalog = [] {
        const std::size_t n = 3;
        std::vector<std::vector<double>> cm(n, std::vector<double>(n, 1.0));
        std::vector<std::vector<double>> em(n, std::vector<double>(n, 0.5));
        for (std::size_t i = 0; i < n; ++i) cm[i][i] = em[i][i] = 0.0;
        std::vector<TaskType> types;
        types.emplace_back(0, std::vector<double>{8.0, 12.0, 5.0},
                           std::vector<double>{7.3, 8.4, 2.0}, cm, em);
        types.emplace_back(1, std::vector<double>{7.0, 8.5, 3.0},
                           std::vector<double>{6.2, 7.5, 1.5}, cm, em);
        return Catalog(std::move(types));
    }();
};

// ---- the completion cursor (DESIGN.md §11) ----

/// Kinds of the completion, re-plan and fault-onset events at exactly `t`,
/// in emission order.
std::vector<obs::EventKind> dispatch_order_at(const std::vector<obs::TraceEvent>& events,
                                              Time t) {
    std::vector<obs::EventKind> kinds;
    for (const obs::TraceEvent& event : events)
        if (event.t_sim == t && (event.kind == obs::EventKind::complete ||
                                 event.kind == obs::EventKind::plan_rebuild ||
                                 event.kind == obs::EventKind::fault_onset))
            kinds.push_back(event.kind);
    return kinds;
}

TEST(CompletionCursor, FaultOnsetAtACompletionInstantKeepsHeapOrder) {
#ifndef RMWP_OBS
    GTEST_SKIP() << "observes dispatch order through the trace sink";
#else
    const MiniWorld world;
    const Request request{0, 0, ms(100)};
    // Execution-time variation makes every completion re-plan, so the
    // trace shows whether the completion or the onset was dispatched first.
    SimOptions options;
    options.execution_time_factor_min = 0.5;
    options.execution_seed = 3;

    // Feed one arrival; `faults` is installed before or after the
    // arrival's rebuild (the one that plans the completion).
    const auto run = [&](const FaultSchedule* faults, bool before_rebuild) {
        obs::TraceSink sink;
        SimOptions traced = options;
        traced.sink = &sink;
        HeuristicRM rm;
        NullPredictor off;
        SimEngine engine(world.platform, world.catalog, rm, off, nullptr, traced);
        engine.begin_stream();
        if (before_rebuild) engine.set_fault_schedule(faults, 0, true);
        (void)engine.stream_arrival(request, 0, 0);
        if (!before_rebuild) engine.set_fault_schedule(faults, 0, true);
        (void)engine.finish_stream();
        return sink.events();
    };

    Time completed_at = -1;
    for (const obs::TraceEvent& event : run(nullptr, true))
        if (event.kind == obs::EventKind::complete) completed_at = event.t_sim;
    ASSERT_GT(completed_at, 0);

    // A permanent outage of a CPU the task does not use, at exactly the
    // completion instant.
    std::vector<FaultEvent> events(1);
    events[0].resource = 0;
    events[0].start = completed_at;
    const FaultSchedule faults{std::move(events)};

    using K = obs::EventKind;
    // Scheduled before the rebuild, the onset wins the tie (as a heap event
    // with the lower sequence did): it rescues and re-plans, which
    // supersedes the completion.
    EXPECT_EQ(dispatch_order_at(run(&faults, true), completed_at),
              (std::vector<K>{K::complete, K::fault_onset, K::plan_rebuild}));
    // Scheduled after it, the completion goes first and re-plans, then the
    // onset rescues.
    EXPECT_EQ(dispatch_order_at(run(&faults, false), completed_at),
              (std::vector<K>{K::complete, K::plan_rebuild, K::fault_onset, K::plan_rebuild}));
#endif
}

TEST(CompletionCursor, CompletionsOneTickApartRetireSeparately) {
    // Two CPUs, one task type (wcet 5 on either), migrations prohibitively
    // expensive.  tau_1 arrives one tick after tau_0 and cannot queue
    // behind it (deadline 6), so the two complete on different CPUs one
    // tick apart.  tau_0's completion advances tau_1 to one tick short of
    // its end without retiring it; tau_1's own completion, a tick later,
    // does — with no re-plan in between (no execution-time variation).
    PlatformBuilder builder;
    builder.add_cpu("CPU1").add_cpu("CPU2");
    const Platform platform = builder.build();
    std::vector<std::vector<double>> migration(2, std::vector<double>(2, 100.0));
    migration[0][0] = migration[1][1] = 0.0;
    std::vector<TaskType> types;
    types.emplace_back(0, std::vector<double>{5.0, 5.0}, std::vector<double>{1.0, 1.0},
                       migration, migration);
    const Catalog catalog(std::move(types));
    const Trace trace({Request{0, 0, ms(6.0)}, Request{1, 0, ms(6.0)}});

    HeuristicRM rm;
    NullPredictor off;
    TraceResult result;
    ASSERT_NO_THROW(result = simulate_trace(platform, catalog, trace, rm, off));
    EXPECT_EQ(result.accepted, 2u);
    EXPECT_EQ(result.completed, 2u);
    EXPECT_EQ(result.migrations, 0u);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_NEAR(result.total_energy, 2.0, 1e-9);
}

TEST(Simulator, SingleTaskConsumesExactlyItsEnergy) {
    const MiniWorld world;
    const Trace trace({Request{0, 0, ms(100.0)}});
    HeuristicRM rm;
    NullPredictor off;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, off);
    EXPECT_EQ(result.accepted, 1u);
    EXPECT_EQ(result.completed, 1u);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.migrations, 0u);
    // Energy-greedy mapping: the GPU at 2 J.
    EXPECT_NEAR(result.total_energy, 2.0, 1e-9);
}

TEST(Simulator, EmptyishTraceAndEndOfTrace) {
    const MiniWorld world;
    const Trace trace({Request{0, 1, ms(50.0)}});
    ExactRM rm;
    OraclePredictor oracle;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, oracle);
    EXPECT_EQ(result.requests, 1u);
    EXPECT_EQ(result.accepted, 1u);
    // No next request to predict: the plan cannot have used prediction.
    EXPECT_EQ(result.plans_with_prediction, 0u);
}

TEST(Simulator, RejectionLeavesStateUntouched) {
    const MiniWorld world;
    // Scenario (a) of Fig 1: tau_2 must be rejected; tau_1 still completes.
    const Trace trace({Request{0, 0, ms(8.0)}, Request{ms(1.0), 1, ms(5.0)}});
    HeuristicRM rm;
    NullPredictor off;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, off);
    EXPECT_EQ(result.accepted, 1u);
    EXPECT_EQ(result.rejected, 1u);
    EXPECT_EQ(result.completed, 1u);
    EXPECT_NEAR(result.total_energy, 2.0, 1e-9);
}

TEST(Simulator, PredictionCausesReservationAndBothComplete) {
    const MiniWorld world;
    const Trace trace({Request{0, 0, ms(8.0)}, Request{ms(1.0), 1, ms(5.0)}});
    HeuristicRM rm;
    OraclePredictor oracle;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, oracle);
    EXPECT_EQ(result.accepted, 2u);
    EXPECT_EQ(result.completed, 2u);
    EXPECT_NEAR(result.total_energy, 7.3 + 1.5, 1e-9);
    EXPECT_GE(result.plans_with_prediction, 1u);
}

TEST(Simulator, MigrationChargesEnergyAndOverhead) {
    const MiniWorld world;
    // tau_1 (type 0, d=100) starts on the GPU (cheapest).  tau_2 (type 1,
    // d=5) then needs the GPU; tau_1 is pinned there though...  so instead:
    // make tau_1 start on a CPU by occupying the GPU first with tau_0.
    // Simpler: verify migration accounting directly through a crafted
    // two-request scenario where the RM moves a started CPU task.
    //
    // t=0: tau_0 type 0 d=9 -> GPU busy [0, 5).
    //      tau_1 type 1 d=40 (arrives t=0.5) -> cheapest remaining is GPU
    //      after tau_0?  EDF would queue it; to force a CPU start and later
    //      migration we give it a deadline that allows requeueing.
    const Trace trace({Request{0, 0, ms(9.0)}, Request{ms(0.5), 1, ms(40.0)}});
    HeuristicRM rm;
    NullPredictor off;
    const TraceResult result = simulate_trace(world.platform, world.catalog, trace, rm, off);
    // Whatever the exact choices, the invariants hold:
    EXPECT_EQ(result.accepted + result.rejected, 2u);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_DOUBLE_EQ(result.migration_energy, 0.5 * static_cast<double>(result.migrations));
}

TEST(Simulator, DeterministicAcrossRuns) {
    const Platform platform = make_paper_platform();
    Rng rng(5);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 150;
    Rng trace_rng(6);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    auto run_once = [&] {
        HeuristicRM rm;
        OraclePredictor oracle;
        return simulate_trace(platform, catalog, trace, rm, oracle);
    };
    const TraceResult a = run_once();
    const TraceResult b = run_once();
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
    EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Simulator, OverheadStallCausesAbortsOnlyWithOverhead) {
    const Platform platform = make_paper_platform();
    Rng rng(15);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 250;
    params.interarrival_mean = 5.0;
    params.interarrival_stddev = 1.5;
    Rng trace_rng(16);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    OraclePredictor clean;
    const TraceResult no_overhead = simulate_trace(platform, catalog, trace, rm, clean);
    EXPECT_EQ(no_overhead.aborted, 0u);

    OraclePredictor costly(ms(0.5)); // 10 % of the mean interarrival
    const TraceResult with_overhead = simulate_trace(platform, catalog, trace, rm, costly);
    EXPECT_GT(with_overhead.aborted, 0u);
    EXPECT_GE(with_overhead.loss_percent(), with_overhead.rejection_percent());
    EXPECT_EQ(with_overhead.deadline_misses, 0u); // doomed tasks abort, never miss
}

TEST(Simulator, SlackOnlyOverheadModelNeverAborts) {
    const Platform platform = make_paper_platform();
    Rng rng(17);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 200;
    Rng trace_rng(18);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    OraclePredictor costly(ms(0.5));
    SimOptions options;
    options.overhead_stalls_platform = false;
    const TraceResult result =
        simulate_trace(platform, catalog, trace, rm, costly, options);
    EXPECT_EQ(result.aborted, 0u);
    EXPECT_EQ(result.deadline_misses, 0u);
}

// ---- cross-RM invariants on realistic workloads ----

struct InvariantCase {
    std::uint64_t seed;
    bool exact;
    bool predict;
};

class SimulatorInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {};

TEST_P(SimulatorInvariants, FirmGuaranteesAndConservation) {
    const auto [seed, use_exact, use_prediction] = GetParam();

    const Platform platform = make_paper_platform();
    Rng rng(seed);
    Rng catalog_rng = rng.derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, catalog_rng);
    TraceGenParams params;
    params.length = 120;
    params.group = seed % 2 == 0 ? DeadlineGroup::very_tight : DeadlineGroup::less_tight;
    Rng trace_rng = rng.derive(2);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM heuristic;
    ExactRM exact;
    ResourceManager& rm = use_exact ? static_cast<ResourceManager&>(exact)
                                    : static_cast<ResourceManager&>(heuristic);
    std::unique_ptr<Predictor> predictor;
    if (use_prediction) predictor = std::make_unique<OraclePredictor>();
    else predictor = std::make_unique<NullPredictor>();

    const TraceResult result =
        simulate_trace(platform, catalog, trace, rm, *predictor);

    // Firm real-time: every admitted task completed by its deadline.
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.aborted, 0u);
    EXPECT_EQ(result.accepted + result.rejected, result.requests);
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_GT(result.total_energy, 0.0);
    EXPECT_GE(result.migration_energy, 0.0);
    EXPECT_LE(result.migration_energy, result.total_energy);
    EXPECT_EQ(result.activations, result.requests);
    if (!use_prediction) {
        EXPECT_EQ(result.plans_with_prediction, 0u);
    }
    EXPECT_GT(result.reference_energy, 0.0);
    EXPECT_GE(result.rejection_percent(), 0.0);
    EXPECT_LE(result.rejection_percent(), 100.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SimulatorInvariants,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                                            ::testing::Bool(), ::testing::Bool()));

TEST(Simulator, PredictionNeverBreaksGuarantees) {
    // Even a maliciously wrong predictor must not cause deadline misses —
    // prediction is a planning constraint, not a promise.
    struct LyingPredictor final : Predictor {
        [[nodiscard]] std::string name() const override { return "liar"; }
        void observe(const Trace&, std::size_t) override {}
        [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace& trace,
                                                                std::size_t index,
                                                                Time now) override {
            if (index + 1 >= trace.size()) return std::nullopt;
            // Claim a huge task is about to arrive with a tiny deadline.
            return PredictedTask{0, now + ms(0.1), ms(1)};
        }
    };

    const Platform platform = make_paper_platform();
    Rng rng(77);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 150;
    Rng trace_rng(78);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    HeuristicRM rm;
    LyingPredictor liar;
    const TraceResult result = simulate_trace(platform, catalog, trace, rm, liar);
    EXPECT_EQ(result.deadline_misses, 0u);
    EXPECT_EQ(result.completed, result.accepted);
}

} // namespace
} // namespace rmwp
