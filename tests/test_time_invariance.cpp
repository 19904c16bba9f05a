// Translation invariance of simulated time.
//
// Shifting every arrival (and every injected fault) by a constant offset
// must not change what the service does: the same accept/reject verdicts,
// the same mappings, and the same executed segments relative to the
// offset.  Offsets run up to +1e12 ms (about 32 years of simulated time),
// far past the horizon an endless serve run reaches in a day.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/baseline_rm.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "fault/fault.hpp"
#include "obs/trace_sink.hpp"
#include "predict/predictor.hpp"
#include "serve/serve.hpp"
#include "sim/simulator.hpp"
#include "workload/catalog.hpp"
#include "workload/trace_generator.hpp"

namespace rmwp {
namespace {

const double kOffsetsMs[] = {1e5, 1e8, 1e10, 1e12};

enum class Rm { heuristic, exact, baseline };

std::string rm_name(Rm rm) {
    switch (rm) {
    case Rm::heuristic: return "heuristic";
    case Rm::exact: return "exact";
    case Rm::baseline: return "baseline";
    }
    return "?";
}

std::unique_ptr<ResourceManager> make_rm(Rm rm) {
    switch (rm) {
    case Rm::heuristic: return std::make_unique<HeuristicRM>();
    case Rm::exact: return std::make_unique<ExactRM>();
    case Rm::baseline: return std::make_unique<BaselineRM>();
    }
    return nullptr;
}

/// The paper's platform and a generated catalog (seed 42), with a VT trace
/// (seed 7) and a fault schedule over its horizon.
struct World {
    Platform platform = make_paper_platform();
    Catalog catalog = [this] {
        Rng rng(42);
        return generate_catalog(platform, CatalogParams{}, rng);
    }();
    Trace trace = [this] {
        TraceGenParams params;
        params.length = 200;
        params.group = DeadlineGroup::very_tight;
        Rng rng(7);
        return generate_trace(catalog, params, rng);
    }();
    FaultSchedule faults = [this] {
        FaultParams params;
        params.outage_rate = 0.5;
        params.throttle_rate = 0.5;
        Rng rng(3);
        return generate_fault_schedule(platform, params, trace.horizon(), rng);
    }();
};

const World& world() {
    static const World instance;
    return instance;
}

Trace shifted(const Trace& trace, Time offset) {
    std::vector<Request> requests = trace.requests();
    for (Request& request : requests) request.arrival += offset;
    return Trace(std::move(requests));
}

FaultSchedule shifted(const FaultSchedule& schedule, Time offset) {
    std::vector<FaultEvent> events = schedule.events();
    for (FaultEvent& event : events) {
        event.start += offset;
        if (event.end != kNever) event.end += offset;
    }
    return FaultSchedule(std::move(events));
}

/// One recorded event with its time taken relative to the offset.  The
/// arrival event's detail (an absolute deadline) is dropped; every other
/// detail is a duration, an energy, a count or a factor.
struct Step {
    obs::EventKind kind;
    Time t;
    std::uint64_t task;
    std::int64_t resource;
    double detail;
    std::uint32_t aux;

    bool operator==(const Step&) const = default;
};

std::vector<Step> steps(const obs::TraceSink& sink, Time offset) {
    EXPECT_EQ(sink.dropped(), 0u);
    std::vector<Step> out;
    for (const obs::TraceEvent& event : sink.events()) {
        const double detail = event.kind == obs::EventKind::arrival ? 0.0 : event.detail;
        out.push_back(
            Step{event.kind, event.t_sim - offset, event.task, event.resource, detail, event.aux});
    }
    return out;
}

std::string describe(const Step& step) {
    return std::string(obs::to_string(step.kind)) + " t=" + std::to_string(step.t) +
           " task=" + std::to_string(step.task) + " resource=" + std::to_string(step.resource) +
           " detail=" + std::to_string(step.detail) + " aux=" + std::to_string(step.aux);
}

void expect_same_steps(const std::vector<Step>& expected, const std::vector<Step>& actual,
                       double offset_ms) {
    ASSERT_EQ(expected.size(), actual.size()) << "at +" << offset_ms << " ms";
    for (std::size_t k = 0; k < expected.size(); ++k)
        ASSERT_EQ(expected[k], actual[k])
            << "at +" << offset_ms << " ms, event " << k << ": expected "
            << describe(expected[k]) << ", got " << describe(actual[k]);
}

// ---- batch runner ----

using BatchParam = std::tuple<Rm, bool /*variation*/, bool /*faults*/>;

class BatchInvariance : public ::testing::TestWithParam<BatchParam> {};

std::vector<Step> run_batch(const BatchParam& param, Time offset) {
    const World& w = world();
    const auto [rm_kind, variation, faults] = param;
    const Trace trace = shifted(w.trace, offset);
    const FaultSchedule schedule = shifted(w.faults, offset);

    PredictorSpec spec;
    spec.kind = PredictorSpec::Kind::oracle;
    const std::unique_ptr<Predictor> predictor = make_predictor(spec, w.catalog, Rng(1));
    const std::unique_ptr<ResourceManager> rm = make_rm(rm_kind);

    obs::TraceSink sink(std::size_t{1} << 18);
    SimOptions options;
    options.sink = &sink;
    options.execution_seed = 5;
    if (variation) options.execution_time_factor_min = 0.5;
    if (faults) options.fault_schedule = &schedule;
    const TraceResult result =
        simulate_trace(w.platform, w.catalog, trace, *rm, *predictor, options);
    EXPECT_EQ(result.deadline_misses, 0u);
    return steps(sink, offset);
}

TEST_P(BatchInvariance, SameDecisionsAndSegmentsAtEveryOffset) {
    const std::vector<Step> reference = run_batch(GetParam(), 0);
    ASSERT_FALSE(reference.empty());
    for (const double offset_ms : kOffsetsMs) {
        const Time offset = ms(offset_ms);
        std::vector<Step> actual;
        ASSERT_NO_THROW(actual = run_batch(GetParam(), offset)) << "at +" << offset_ms << " ms";
        expect_same_steps(reference, actual, offset_ms);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRms, BatchInvariance,
    ::testing::Combine(::testing::Values(Rm::heuristic, Rm::exact, Rm::baseline),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<BatchParam>& param_info) {
        return rm_name(std::get<0>(param_info.param)) +
               (std::get<1>(param_info.param) ? "_variation" : "_wcet") +
               (std::get<2>(param_info.param) ? "_faults" : "_healthy");
    });

// ---- serve loop ----

/// Delivers a fixed request list (shifted in ticks, so the translate is
/// exact however large the offset).
class ListSource final : public ArrivalSource {
public:
    explicit ListSource(std::vector<Request> requests) : requests_(std::move(requests)) {}

    std::optional<Request> next() override {
        if (next_ == requests_.size()) return std::nullopt;
        return requests_[next_++];
    }
    bool seekable() const noexcept override { return false; }
    SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor&) override {}

private:
    std::vector<Request> requests_;
    std::size_t next_ = 0;
};

using ServeParam = std::tuple<Rm, bool /*variation*/>;

class ServeInvariance : public ::testing::TestWithParam<ServeParam> {};

std::vector<Step> run_serve_shifted(const ServeParam& param, Time offset) {
    const World& w = world();
    const auto [rm_kind, variation] = param;
    ListSource source(shifted(w.trace, offset).requests());

    PredictorSpec spec;
    spec.kind = PredictorSpec::Kind::online;
    const std::unique_ptr<Predictor> predictor = make_predictor(spec, w.catalog, Rng(1));
    const std::unique_ptr<ResourceManager> rm = make_rm(rm_kind);

    obs::TraceSink sink(std::size_t{1} << 18);
    ServeConfig config;
    config.monitor = false;
    config.sim.sink = &sink;
    config.sim.execution_seed = 5;
    if (variation) config.sim.execution_time_factor_min = 0.5;
    const ServeResult served =
        run_serve(w.platform, w.catalog, *rm, *predictor, nullptr, source, config);
    EXPECT_EQ(served.exit_code, 0) << served.violation;
    EXPECT_EQ(served.result.deadline_misses, 0u);
    return steps(sink, offset);
}

TEST_P(ServeInvariance, SameDecisionsAndSegmentsAtEveryOffset) {
    const std::vector<Step> reference = run_serve_shifted(GetParam(), 0);
    ASSERT_FALSE(reference.empty());
    for (const double offset_ms : kOffsetsMs) {
        const Time offset = ms(offset_ms);
        std::vector<Step> actual;
        ASSERT_NO_THROW(actual = run_serve_shifted(GetParam(), offset))
            << "at +" << offset_ms << " ms";
        expect_same_steps(reference, actual, offset_ms);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRms, ServeInvariance,
    ::testing::Combine(::testing::Values(Rm::heuristic, Rm::exact, Rm::baseline),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ServeParam>& param_info) {
        return rm_name(std::get<0>(param_info.param)) +
               (std::get<1>(param_info.param) ? "_variation" : "_wcet");
    });

} // namespace
} // namespace rmwp
