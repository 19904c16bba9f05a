// Unit tests for the workload substrate: task types, catalog generation
// (Sec 5.1 statistics), traces, the VT/LT trace generator, and CSV I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>

#include "util/check.hpp"
#include "util/stats.hpp"
#include "workload/trace_generator.hpp"
#include "workload/trace_io.hpp"

namespace rmwp {
namespace {

TaskType make_simple_type(TaskTypeId id = 0) {
    const std::size_t n = 2;
    std::vector<std::vector<double>> cm(n, std::vector<double>(n, 0.0));
    std::vector<std::vector<double>> em(n, std::vector<double>(n, 0.0));
    cm[0][1] = 3.0;
    cm[1][0] = 4.0;
    em[0][1] = 1.0;
    em[1][0] = 2.0;
    return TaskType(id, {10.0, 20.0}, {5.0, 2.0}, cm, em);
}

TEST(TaskType, AccessorsAndAverages) {
    const TaskType type = make_simple_type();
    EXPECT_EQ(type.wcet(0), ms(10));
    EXPECT_DOUBLE_EQ(type.energy(1), 2.0);
    EXPECT_EQ(type.mean_wcet(), ms(15));
    EXPECT_DOUBLE_EQ(type.mean_energy(), 3.5);
    EXPECT_EQ(type.min_wcet(), ms(10));
    EXPECT_DOUBLE_EQ(type.min_energy(), 2.0);
    EXPECT_EQ(type.migration_time(0, 1), ms(3));
    EXPECT_DOUBLE_EQ(type.migration_energy(1, 0), 2.0);
    EXPECT_EQ(type.migration_time(0, 0), 0);
    EXPECT_EQ(type.executable_resources().size(), 2u);
}

TEST(TaskType, NonExecutableResourceIsInfinite) {
    const std::size_t n = 2;
    const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
    const TaskType type(0, {10.0, kNotExecutable}, {5.0, kNotExecutable}, zero, zero);
    EXPECT_TRUE(type.executable_on(0));
    EXPECT_FALSE(type.executable_on(1));
    EXPECT_EQ(type.executable_resources(), std::vector<ResourceId>{0});
    // Averages ignore non-executable resources.
    EXPECT_EQ(type.mean_wcet(), ms(10));
}

TEST(TaskType, InconsistentExecutabilityThrows) {
    const std::size_t n = 2;
    const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
    // Finite WCET but infinite energy on resource 1: inconsistent.
    EXPECT_THROW(TaskType(0, {10.0, 20.0}, {5.0, kNotExecutable}, zero, zero),
                 precondition_error);
}

TEST(TaskType, FullyNonExecutableThrows) {
    const std::size_t n = 1;
    const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
    EXPECT_THROW(TaskType(0, {kNotExecutable}, {kNotExecutable}, zero, zero),
                 precondition_error);
}

TEST(TaskType, NonzeroSelfMigrationThrows) {
    const std::size_t n = 1;
    std::vector<std::vector<double>> bad(n, std::vector<double>(n, 1.0));
    const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
    EXPECT_THROW(TaskType(0, {10.0}, {5.0}, bad, zero), precondition_error);
}

TEST(CatalogGeneration, PaperStatistics) {
    const Platform platform = make_paper_platform();
    Rng rng(42);
    CatalogParams params;
    params.type_count = 400; // more types than the paper for tighter stats
    const Catalog catalog = generate_catalog(platform, params, rng);
    ASSERT_EQ(catalog.size(), 400u);

    RunningStats cpu_wcet;
    RunningStats cpu_energy;
    RunningStats divisor;
    for (const TaskType& type : catalog) {
        double cpu_wcet_sum = 0.0;
        for (ResourceId i = 0; i < 5; ++i) {
            cpu_wcet.add(to_ms(type.wcet(i)));
            cpu_energy.add(type.energy(i));
            cpu_wcet_sum += to_ms(type.wcet(i));
        }
        // GPU cost = CPU average / divisor with divisor in [2, 10]; the
        // energies carry it exactly.
        double cpu_energy_sum = 0.0;
        for (ResourceId i = 0; i < 5; ++i) cpu_energy_sum += type.energy(i);
        const double implied = (cpu_energy_sum / 5.0) / type.energy(5);
        divisor.add(implied);
        EXPECT_GE(implied, 2.0 - 1e-9);
        EXPECT_LE(implied, 10.0 + 1e-9);
        // The WCETs carry the same divisor up to their rounding to whole
        // nanosecond ticks.
        EXPECT_NEAR((cpu_wcet_sum / 5.0) / to_ms(type.wcet(5)), implied, implied * 1e-6);
    }
    EXPECT_NEAR(cpu_wcet.mean(), 40.0, 0.5);
    EXPECT_NEAR(cpu_wcet.stddev(), 9.0, 0.5);
    EXPECT_NEAR(cpu_energy.mean(), 15.0, 0.2);
    EXPECT_NEAR(cpu_energy.stddev(), 3.0, 0.2);
    EXPECT_NEAR(divisor.mean(), 6.0, 0.3); // uniform(2, 10) has mean 6
}

TEST(CatalogGeneration, MigrationOverheadFractions) {
    const Platform platform = make_paper_platform();
    Rng rng(7);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    for (const TaskType& type : catalog) {
        const double time_frac = static_cast<double>(type.migration_time(0, 1)) /
                                 static_cast<double>(type.mean_wcet());
        const double energy_frac = type.migration_energy(0, 1) / type.mean_energy();
        EXPECT_GE(time_frac, 0.1 - 1e-6);
        EXPECT_LE(time_frac, 0.2 + 1e-6);
        EXPECT_GE(energy_frac, 0.1 - 1e-9);
        EXPECT_LE(energy_frac, 0.2 + 1e-9);
        // Overhead is symmetric across pairs by construction.
        EXPECT_EQ(type.migration_time(0, 1), type.migration_time(4, 2));
    }
}

TEST(CatalogGeneration, GpuIncompatibleFraction) {
    const Platform platform = make_paper_platform();
    Rng rng(13);
    CatalogParams params;
    params.type_count = 500;
    params.gpu_incompatible_fraction = 0.3;
    const Catalog catalog = generate_catalog(platform, params, rng);
    std::size_t incompatible = 0;
    for (const TaskType& type : catalog)
        if (!type.executable_on(5)) ++incompatible;
    EXPECT_NEAR(static_cast<double>(incompatible) / 500.0, 0.3, 0.06);
}

TEST(CatalogGeneration, DeterministicInSeed) {
    const Platform platform = make_paper_platform();
    Rng rng_a(5);
    Rng rng_b(5);
    const Catalog a = generate_catalog(platform, CatalogParams{}, rng_a);
    const Catalog b = generate_catalog(platform, CatalogParams{}, rng_b);
    for (std::size_t t = 0; t < a.size(); ++t)
        for (ResourceId i = 0; i < platform.size(); ++i)
            EXPECT_EQ(a.type(t).wcet(i), b.type(t).wcet(i));
}

TEST(CatalogParams, ValidationRejectsNonsense) {
    CatalogParams params;
    params.type_count = 0;
    EXPECT_THROW(params.validate(), precondition_error);
    params = CatalogParams{};
    params.gpu_divisor_min = 12.0; // > max
    EXPECT_THROW(params.validate(), precondition_error);
    params = CatalogParams{};
    params.migration_fraction_min = 0.5;
    params.migration_fraction_max = 0.1;
    EXPECT_THROW(params.validate(), precondition_error);
}

TEST(Trace, OrderingAndStats) {
    const Trace trace({Request{0, 0, ms(5.0)}, Request{ms(2.0), 1, ms(3.0)}, Request{ms(6.0), 0, ms(4.0)}});
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_DOUBLE_EQ(trace.mean_interarrival(), static_cast<double>(ms(3)));
    EXPECT_EQ(trace.horizon(), ms(10));
    EXPECT_EQ(trace.request(1).absolute_deadline(), ms(5.0));
}

TEST(Trace, RejectsUnorderedArrivals) {
    EXPECT_THROW(Trace({Request{ms(5.0), 0, ms(1.0)}, Request{ms(2.0), 0, ms(1.0)}}), precondition_error);
}

TEST(Trace, RejectsNonPositiveDeadline) {
    EXPECT_THROW(Trace({Request{0, 0, 0}}), precondition_error);
}

TEST(TraceGenerator, GroupCoefficients) {
    TraceGenParams params;
    params.group = DeadlineGroup::very_tight;
    EXPECT_DOUBLE_EQ(params.deadline_coefficient_min(), 1.5);
    EXPECT_DOUBLE_EQ(params.deadline_coefficient_max(), 2.0);
    params.group = DeadlineGroup::less_tight;
    EXPECT_DOUBLE_EQ(params.deadline_coefficient_min(), 2.0);
    EXPECT_DOUBLE_EQ(params.deadline_coefficient_max(), 6.0);
    EXPECT_STREQ(to_string(DeadlineGroup::very_tight), "VT");
    EXPECT_STREQ(to_string(DeadlineGroup::less_tight), "LT");
}

TEST(TraceGenerator, InterarrivalStatistics) {
    const Platform platform = make_paper_platform();
    Rng rng(21);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 5000;
    params.interarrival_mean = 6.0;
    params.interarrival_stddev = 2.0;
    Rng trace_rng(22);
    const Trace trace = generate_trace(catalog, params, trace_rng);
    ASSERT_EQ(trace.size(), 5000u);
    RunningStats gaps;
    for (std::size_t j = 1; j < trace.size(); ++j)
        gaps.add(to_ms(trace.request(j).arrival - trace.request(j - 1).arrival));
    EXPECT_NEAR(gaps.mean(), 6.0, 0.15);
    EXPECT_NEAR(gaps.stddev(), 2.0, 0.15);
    EXPECT_GT(gaps.min(), 0.0);
    EXPECT_EQ(trace.request(0).arrival, 0);
}

TEST(TraceGenerator, DeadlineIsRwcetTimesCoefficient) {
    const Platform platform = make_paper_platform();
    Rng rng(23);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    for (const DeadlineGroup group : {DeadlineGroup::very_tight, DeadlineGroup::less_tight}) {
        TraceGenParams params;
        params.length = 500;
        params.group = group;
        Rng trace_rng(24);
        const Trace trace = generate_trace(catalog, params, trace_rng);
        for (const Request& request : trace) {
            // The deadline must equal some executable resource's WCET times a
            // coefficient within the group's range.
            const TaskType& type = catalog.type(request.type);
            bool matched = false;
            for (const ResourceId i : type.executable_resources()) {
                // The deadline rounds down to a whole tick: at most one
                // tick short of WCET x coefficient.
                const auto deadline = static_cast<double>(request.relative_deadline);
                const auto wcet = static_cast<double>(type.wcet(i));
                if (deadline >= wcet * params.deadline_coefficient_min() - 1.0 &&
                    deadline <= wcet * params.deadline_coefficient_max())
                    matched = true;
            }
            EXPECT_TRUE(matched) << "request deadline " << request.relative_deadline;
        }
    }
}

TEST(TraceGenerator, ChildStreamsIndependentOfCount) {
    const Platform platform = make_paper_platform();
    Rng rng(25);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 50;
    const Rng root(77);
    const auto five = generate_traces(catalog, params, 5, root);
    const auto ten = generate_traces(catalog, params, 10, root);
    // The first five traces are identical regardless of the total count.
    for (std::size_t t = 0; t < 5; ++t) {
        ASSERT_EQ(five[t].size(), ten[t].size());
        for (std::size_t j = 0; j < five[t].size(); ++j) {
            EXPECT_EQ(five[t].request(j).arrival, ten[t].request(j).arrival);
            EXPECT_EQ(five[t].request(j).type, ten[t].request(j).type);
        }
    }
}

TEST(TraceIo, TraceRoundTripIsExact) {
    const Platform platform = make_paper_platform();
    Rng rng(31);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 120;
    Rng trace_rng(32);
    const Trace original = generate_trace(catalog, params, trace_rng);

    std::stringstream buffer;
    write_trace_csv(buffer, original);
    const Trace loaded = read_trace_csv(buffer);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t j = 0; j < original.size(); ++j) {
        EXPECT_EQ(loaded.request(j).arrival, original.request(j).arrival);
        EXPECT_EQ(loaded.request(j).type, original.request(j).type);
        EXPECT_EQ(loaded.request(j).relative_deadline, original.request(j).relative_deadline);
    }
}

TEST(TraceIo, CatalogRoundTripIsExact) {
    const Platform platform = make_paper_platform();
    Rng rng(33);
    CatalogParams params;
    params.type_count = 30;
    params.gpu_incompatible_fraction = 0.2; // exercise the "inf" encoding
    const Catalog original = generate_catalog(platform, params, rng);

    std::stringstream buffer;
    write_catalog_csv(buffer, original);
    const Catalog loaded = read_catalog_csv(buffer);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t t = 0; t < original.size(); ++t) {
        for (ResourceId i = 0; i < platform.size(); ++i) {
            EXPECT_EQ(loaded.type(t).executable_on(i), original.type(t).executable_on(i));
            if (!original.type(t).executable_on(i)) continue;
            EXPECT_EQ(loaded.type(t).wcet(i), original.type(t).wcet(i));
            EXPECT_DOUBLE_EQ(loaded.type(t).energy(i), original.type(t).energy(i));
            for (ResourceId k = 0; k < platform.size(); ++k) {
                EXPECT_EQ(loaded.type(t).migration_time(i, k), original.type(t).migration_time(i, k));
            }
        }
    }
}

TEST(TraceGenerator, TwoPhaseArrivalsAreBimodal) {
    const Platform platform = make_paper_platform();
    Rng rng(41);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 4000;
    params.arrival_model = ArrivalModel::two_phase;
    params.burst_scale = 0.4;
    params.lull_scale = 2.0;
    params.phase_switch_probability = 0.05;
    Rng trace_rng(42);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    // Gaps cluster around 0.4 * mean and 2.0 * mean; almost nothing lands
    // between 1.0x and 1.3x of the base mean (the gap between regimes).
    std::size_t burst_like = 0;
    std::size_t lull_like = 0;
    std::size_t between = 0;
    for (std::size_t j = 1; j < trace.size(); ++j) {
        const double gap = to_ms(trace.request(j).arrival - trace.request(j - 1).arrival);
        const double ratio = gap / params.interarrival_mean;
        if (ratio < 0.8) ++burst_like;
        else if (ratio > 1.4) ++lull_like;
        else ++between;
    }
    EXPECT_GT(burst_like, 1000u);
    EXPECT_GT(lull_like, 1000u);
    EXPECT_LT(between, (burst_like + lull_like) / 8);
}

TEST(TraceGenerator, TypeCorrelationIsLearnablePattern) {
    const Platform platform = make_paper_platform();
    Rng rng(43);
    CatalogParams params_catalog;
    params_catalog.type_count = 10;
    const Catalog catalog = generate_catalog(platform, params_catalog, rng);
    TraceGenParams params;
    params.length = 3000;
    params.type_correlation = 0.8;
    Rng trace_rng(44);
    const Trace trace = generate_trace(catalog, params, trace_rng);

    // For each type, the most frequent successor should dominate with the
    // configured probability (plus the 1/K chance of drawing it uniformly).
    std::vector<std::vector<std::size_t>> transition(10, std::vector<std::size_t>(10, 0));
    for (std::size_t j = 1; j < trace.size(); ++j)
        ++transition[trace.request(j - 1).type][trace.request(j).type];
    double dominant = 0.0;
    double total = 0.0;
    for (const auto& row : transition) {
        std::size_t row_total = 0;
        std::size_t row_max = 0;
        for (const std::size_t count : row) {
            row_total += count;
            row_max = std::max(row_max, count);
        }
        dominant += static_cast<double>(row_max);
        total += static_cast<double>(row_total);
    }
    EXPECT_GT(dominant / total, 0.75);
}

TEST(TraceGenerator, DefaultsReproducePaperModel) {
    // arrival_model gaussian + type_correlation 0 must produce exactly the
    // same trace as before the extension knobs existed (the two-phase and
    // correlation code paths must not consume random draws when disabled).
    const Platform platform = make_paper_platform();
    Rng rng(45);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, rng);
    TraceGenParams params;
    params.length = 50;
    Rng a(46);
    Rng b(46);
    const Trace first = generate_trace(catalog, params, a);
    const Trace second = generate_trace(catalog, params, b);
    for (std::size_t j = 0; j < first.size(); ++j) {
        EXPECT_EQ(first.request(j).arrival, second.request(j).arrival);
        EXPECT_EQ(first.request(j).type, second.request(j).type);
    }
}

TEST(TraceGenerator, ExtensionValidation) {
    TraceGenParams params;
    params.type_correlation = 1.5;
    EXPECT_THROW(params.validate(), precondition_error);
    params = TraceGenParams{};
    params.burst_scale = 3.0; // > lull_scale
    EXPECT_THROW(params.validate(), precondition_error);
    params = TraceGenParams{};
    params.phase_switch_probability = -0.1;
    EXPECT_THROW(params.validate(), precondition_error);
}

TEST(TraceIo, RejectsWrongHeader) {
    std::stringstream buffer("bogus,header\n1,2,3\n");
    EXPECT_THROW(std::ignore = read_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedRowsWithDescriptiveErrors) {
    const auto parse = [](const std::string& body) {
        std::stringstream buffer("arrival,type,relative_deadline\n" + body);
        return read_trace_csv(buffer);
    };
    // Baseline: a well-formed body parses.
    EXPECT_EQ(parse("0,0,5\n1.5,1,4\n").size(), 2u);

    EXPECT_THROW(std::ignore = parse("0,0\n"), std::runtime_error);          // field count
    EXPECT_THROW(std::ignore = parse("abc,0,5\n"), std::runtime_error);      // unparseable
    EXPECT_THROW(std::ignore = parse("-1,0,5\n"), std::runtime_error);       // negative arrival
    EXPECT_THROW(std::ignore = parse("0,0,-5\n"), std::runtime_error);       // negative deadline
    EXPECT_THROW(std::ignore = parse("0,0,0\n"), std::runtime_error);        // zero deadline
    EXPECT_THROW(std::ignore = parse("inf,0,5\n"), std::runtime_error);      // non-finite time
    EXPECT_THROW(std::ignore = parse("nan,0,5\n"), std::runtime_error);      // non-finite time
    EXPECT_THROW(std::ignore = parse("0,0,nan\n"), std::runtime_error);      // non-finite deadline
    EXPECT_THROW(std::ignore = parse("1e13,0,5\n"), std::runtime_error);     // beyond the tick range
    EXPECT_THROW(std::ignore = parse("9e12,0,3e11\n"), std::runtime_error);  // deadline overflows
    EXPECT_THROW(std::ignore = parse("0,0,1e-7\n"), std::runtime_error);     // deadline below a tick
    // The largest representable horizons still parse, exactly.
    const Trace far = parse("9e12,0,1e11\n");
    EXPECT_EQ(far.request(0).arrival, Time{9'000'000'000'000'000'000});
    EXPECT_EQ(far.request(0).relative_deadline, Time{100'000'000'000'000'000});
    EXPECT_THROW(std::ignore = parse("5,0,5\n2,0,5\n"), std::runtime_error); // non-monotone

    // The error message names the offending line.
    for (const std::string bad : {"-3,0,5", "nan,0,5", "9e12,0,3e11", "1e300,0,5"}) {
        try {
            std::ignore = parse("0,0,5\n" + bad + "\n");
            FAIL() << "expected std::runtime_error for " << bad;
        } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos) << bad;
        }
    }
}

TEST(TraceIo, ValidateTraceRejectsUnknownTypeIds) {
    const Platform platform = make_paper_platform();
    Rng rng(44);
    CatalogParams params;
    params.type_count = 10;
    const Catalog catalog = generate_catalog(platform, params, rng);

    const Trace good({Request{0, 9, ms(5.0)}});
    EXPECT_NO_THROW(validate_trace(good, catalog));

    const Trace bad({Request{0, 10, ms(5.0)}});
    EXPECT_THROW(validate_trace(bad, catalog), std::runtime_error);

    // A programmatic trace whose absolute deadline leaves the tick range.
    const Trace overflowing({Request{kNever - ms(1), 0, ms(5.0)}});
    EXPECT_THROW(validate_trace(overflowing, catalog), std::runtime_error);
}

} // namespace
} // namespace rmwp
