// Tests for the multi-step lookahead extension: predict_horizon
// implementations, multi-predicted planning, the trimming admission ladder,
// and end-to-end monotonicity.
#include <gtest/gtest.h>

#include <tuple>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "predict/noisy.hpp"
#include "predict/online.hpp"
#include "predict/oracle.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

struct LookaheadWorld {
    Platform platform = make_paper_platform();
    Catalog catalog;
    Trace trace;

    static Catalog make_catalog(const Platform& platform) {
        Rng rng = Rng(900).derive(1);
        return generate_catalog(platform, CatalogParams{}, rng);
    }

    explicit LookaheadWorld(std::size_t length = 400) : catalog(make_catalog(platform)) {
        TraceGenParams params;
        params.length = length;
        Rng trace_rng = Rng(900).derive(2);
        trace = generate_trace(catalog, params, trace_rng);
    }
};

TEST(PredictHorizon, OracleReturnsTruthInOrder) {
    const LookaheadWorld world;
    OraclePredictor oracle;
    const auto horizon = oracle.predict_horizon(world.trace, 5, 0, 4);
    ASSERT_EQ(horizon.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
        const Request& truth = world.trace.request(5 + 1 + k);
        EXPECT_EQ(horizon[k].type, truth.type);
        EXPECT_EQ(horizon[k].arrival, truth.arrival);
        EXPECT_EQ(horizon[k].relative_deadline, truth.relative_deadline);
    }
    // Nearest first, nondecreasing arrivals.
    for (std::size_t k = 1; k < horizon.size(); ++k)
        EXPECT_GE(horizon[k].arrival, horizon[k - 1].arrival);
}

TEST(PredictHorizon, TruncatesAtTraceEnd) {
    const LookaheadWorld world;
    OraclePredictor oracle;
    const std::size_t last = world.trace.size() - 1;
    EXPECT_TRUE(oracle.predict_horizon(world.trace, last, 0, 3).empty());
    EXPECT_EQ(oracle.predict_horizon(world.trace, last - 2, 0, 5).size(), 2u);
}

TEST(PredictHorizon, DefaultWrapsPredictNext) {
    const LookaheadWorld world;
    // NullPredictor uses the default implementation.
    NullPredictor null;
    EXPECT_TRUE(null.predict_horizon(world.trace, 0, 0, 3).empty());
}

TEST(PredictHorizon, DepthZeroIsEmpty) {
    const LookaheadWorld world;
    OraclePredictor oracle;
    EXPECT_TRUE(oracle.predict_horizon(world.trace, 0, 0, 0).empty());
}

TEST(PredictHorizon, NoisyAppliesIndependentNoisePerStep) {
    const LookaheadWorld world;
    NoisyPredictor predictor(world.catalog, 0.5, 0.0, Rng(7));
    std::size_t hits = 0;
    std::size_t total = 0;
    for (std::size_t j = 0; j + 4 < world.trace.size(); j += 3) {
        const auto horizon = predictor.predict_horizon(world.trace, j, 0, 3);
        ASSERT_EQ(horizon.size(), 3u);
        for (std::size_t k = 0; k < 3; ++k) {
            ++total;
            if (horizon[k].type == world.trace.request(j + 1 + k).type) ++hits;
        }
    }
    EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(total), 0.5, 0.05);
}

TEST(PredictHorizon, OnlineRollsOutTheChain) {
    const LookaheadWorld world;
    // A deterministic cyclic type stream the chain can learn.
    std::vector<Request> requests;
    for (std::size_t j = 0; j < 200; ++j)
        requests.push_back(Request{static_cast<Time>(j) * ms(6), j % 4, ms(30.0)});
    const Trace trace(std::move(requests));

    OnlinePredictor predictor(world.catalog);
    for (std::size_t j = 0; j < 150; ++j) predictor.observe(trace, j);
    const auto horizon = predictor.predict_horizon(trace, 150, trace.request(150).arrival, 3);
    ASSERT_EQ(horizon.size(), 3u);
    EXPECT_EQ(horizon[0].type, (150 + 1) % 4);
    EXPECT_EQ(horizon[1].type, (150 + 2) % 4);
    EXPECT_EQ(horizon[2].type, (150 + 3) % 4);
    // Arrivals step by the learned gap (~6).
    EXPECT_NEAR(to_ms(horizon[1].arrival - horizon[0].arrival), 6.0, 0.5);
}

TEST(MultiPredictedPlanning, InstanceCarriesAllSteps) {
    const LookaheadWorld world;
    ArrivalContext context;
    context.now = 0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.candidate.uid = 1;
    context.candidate.type = 0;
    context.candidate.absolute_deadline = ms(200.0);
    context.predicted = {PredictedTask{1, ms(10.0), ms(50.0)}, PredictedTask{2, ms(20.0), ms(60.0)},
                         PredictedTask{3, ms(30.0), ms(70.0)}};

    const PlanInstance all = PlanInstance::build(context, 3);
    EXPECT_EQ(all.tasks.size(), 4u);
    EXPECT_EQ(all.predicted_count, 3u);
    EXPECT_TRUE(all.tasks[1].is_predicted);
    EXPECT_NE(all.tasks[1].uid, all.tasks[2].uid); // distinct per-step uids
    EXPECT_TRUE(is_predicted_uid(all.tasks[3].uid));
    EXPECT_FALSE(is_reserved_uid(all.tasks[3].uid));

    const PlanInstance trimmed = PlanInstance::build(context, 1);
    EXPECT_EQ(trimmed.tasks.size(), 2u);
    // Bool still converts as before (regression for the paper-mode API).
    const PlanInstance legacy = PlanInstance::build(context, true);
    EXPECT_EQ(legacy.predicted_count, 1u);
}

TEST(MultiPredictedPlanning, LadderTrimsFurthestFirst) {
    // Predicted step 2 is impossible (deadline shorter than any WCET); the
    // ladder must keep step 1 and still plan with prediction.
    const LookaheadWorld world;
    ArrivalContext context;
    context.now = 0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.candidate.uid = 1;
    context.candidate.type = 0;
    context.candidate.absolute_deadline = ms(500.0);
    context.predicted = {PredictedTask{1, ms(10.0), ms(200.0)}, PredictedTask{2, ms(12.0), ms(0.001)}};

    HeuristicRM rm;
    const Decision decision = rm.decide(context);
    ASSERT_TRUE(decision.admitted);
    EXPECT_TRUE(decision.used_prediction); // depth-1 plan succeeded
}

TEST(MultiPredictedPlanning, ExactHandlesSeveralPredictedTasks) {
    const LookaheadWorld world;
    ArrivalContext context;
    context.now = 0;
    context.platform = &world.platform;
    context.catalog = &world.catalog;
    context.candidate.uid = 1;
    context.candidate.type = 0;
    context.candidate.absolute_deadline = ms(300.0);
    context.predicted = {PredictedTask{1, ms(5.0), ms(100.0)}, PredictedTask{2, ms(10.0), ms(120.0)}};

    const PlanInstance instance = PlanInstance::build(context, 2);
    const auto result = ExactRM::optimize(instance);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->mapping.size(), 3u);
}

TEST(LookaheadEndToEnd, DeeperHorizonNeverHurtsMuchAndUsuallyHelps) {
    const LookaheadWorld world(300);
    HeuristicRM rm;

    auto rejection_at_depth = [&](std::size_t depth) {
        OraclePredictor oracle;
        SimOptions options;
        options.lookahead = depth;
        const TraceResult result =
            simulate_trace(world.platform, world.catalog, world.trace, rm, oracle, options);
        EXPECT_EQ(result.deadline_misses, 0u);
        return result.rejection_percent();
    };

    const double d0 = rejection_at_depth(0);
    const double d1 = rejection_at_depth(1);
    const double d3 = rejection_at_depth(3);
    EXPECT_LE(d1, d0 + 0.5);
    EXPECT_LE(d3, d1 + 0.5);
    EXPECT_LT(d3, d0); // the headline effect
}

} // namespace
} // namespace rmwp
