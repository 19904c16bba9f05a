// perfbench_driver: one serve run of one benchmark workload, reported as a
// single JSON line on stdout.  run.py spawns it once per repetition (so
// VmHWM is per workload) and aggregates the repetitions.
//
//   perfbench_driver --workload NAME --seed S --arrivals N --traced 0|1
//                    [--t0-ns T]
//
// --t0-ns is the CLOCK_MONOTONIC instant, in nanoseconds, at which the
// caller spawned this process; setup_ns is measured from it (process start,
// platform/catalog/RM/predictor/source construction) up to the run_serve
// call.  calibration_ns times the calibrate.hpp kernel around the serve run
// (host speed at this moment).  Untraced runs call run_serve on the workload as built; traced runs
// wrap source, predictor and RM in the ledger.hpp decorators and turn on
// the serve loop's stage profile.  Exit status: 0 = ran (the JSON carries
// the verdicts), 2 = usage error, 4 = refused (audit or sanitizer build).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "calibrate.hpp"
#include "ledger.hpp"
#include "obs/stage_timer.hpp"
#include "predict/online.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace {

using namespace rmwp;
using perfbench::Ledger;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef RMWP_AUDIT
constexpr bool kAudit = true;
#else
constexpr bool kAudit = false;
#endif

#ifdef RMWP_OBS
constexpr bool kObs = true;
#else
constexpr bool kObs = false;
#endif

std::uint64_t monotonic_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

std::uint64_t bits(double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

/// FNV-1a over the run's outcome counters (energies bit for bit): equal
/// digests mean equal admission outcomes, traced or not.
std::uint64_t outcome_digest(const ServeResult& serve) {
    const TraceResult& r = serve.result;
    const std::uint64_t fields[] = {r.requests,
                                    r.accepted,
                                    r.rejected,
                                    r.completed,
                                    r.deadline_misses,
                                    r.aborted,
                                    r.fault_aborted,
                                    r.migrations,
                                    r.activations,
                                    r.plans_with_prediction,
                                    r.rescue_activations,
                                    r.rescued,
                                    serve.shed,
                                    bits(r.total_energy),
                                    bits(r.migration_energy),
                                    bits(r.degraded_energy)};
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const std::uint64_t value : fields)
        for (int byte = 0; byte < 8; ++byte) {
            digest ^= (value >> (8 * byte)) & 0xffU;
            digest *= 0x100000001b3ULL;
        }
    return digest;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 42;
    std::uint64_t arrivals = 0;
    bool traced = false;
    std::uint64_t t0_ns = 0;
};

[[noreturn]] void usage(const std::string& message) {
    std::cerr << "perfbench_driver: " << message
              << "\nusage: perfbench_driver --workload NAME --seed S --arrivals N --traced 0|1 "
                 "[--t0-ns T]\n";
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload") args.workload = value;
            else if (flag == "--seed") args.seed = std::stoull(value);
            else if (flag == "--arrivals") args.arrivals = std::stoull(value);
            else if (flag == "--traced") args.traced = std::stoull(value) != 0;
            else if (flag == "--t0-ns") args.t0_ns = std::stoull(value);
            else usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload.empty() || args.arrivals == 0)
        usage("--workload and --arrivals are required");
    return args;
}

class JsonLine {
public:
    JsonLine& field(const char* key, std::uint64_t value) {
        return raw(key, std::to_string(value));
    }
    JsonLine& field(const char* key, double value) {
        char buffer[40];
        std::snprintf(buffer, sizeof buffer, "%.17g", value);
        return raw(key, buffer);
    }
    JsonLine& field(const char* key, bool value) { return raw(key, value ? "true" : "false"); }
    JsonLine& field(const char* key, const std::string& value) {
        std::string quoted = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\') quoted += '\\';
            quoted += (c == '\n' ? ' ' : c);
        }
        return raw(key, quoted + '"');
    }
    JsonLine& hex(const char* key, std::uint64_t value) {
        char buffer[24];
        std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
        return field(key, std::string(buffer));
    }
    JsonLine& raw(const char* key, const std::string& json) {
        text_ += text_.empty() ? "{" : ", ";
        text_ += '"';
        text_ += key;
        text_ += "\": ";
        text_ += json;
        return *this;
    }
    [[nodiscard]] std::string str() const { return text_ + "}"; }

private:
    std::string text_;
};

} // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    if (kAudit || kSanitized) {
        std::cerr << "perfbench_driver: refusing to measure an audit or sanitizer build "
                     "(it is a different program)\n";
        return 4;
    }

    try {
        const std::unique_ptr<perfbench::Workload> w =
            perfbench::make_workload(args.workload, args.seed, args.arrivals);

        Ledger ledger;
        perfbench::TimedSource timed_source(*w->source, ledger, args.arrivals);
        perfbench::TimedPredictor timed_predictor(*w->predictor, ledger);
        perfbench::TimedRM timed_rm(*w->rm, ledger);
        obs::StageStats stages;
        ServeConfig config = w->config;
        if (args.traced) config.stage_stats_out = &stages;
        ArrivalSource& source =
            args.traced ? static_cast<ArrivalSource&>(timed_source) : *w->source;
        Predictor& predictor =
            args.traced ? static_cast<Predictor&>(timed_predictor) : *w->predictor;
        ResourceManager& rm = args.traced ? static_cast<ResourceManager&>(timed_rm) : *w->rm;

        serve_clear_stop();
        const std::uint64_t setup_end_ns = monotonic_ns();
        const std::uint64_t calibration_before_ns = perfbench::calibration_kernel_ns();
        const std::uint64_t begin_ns = monotonic_ns();
        const ServeResult serve =
            run_serve(*w->platform, *w->catalog, rm, predictor, nullptr, source, config);
        const std::uint64_t end_ns = monotonic_ns();
        const std::uint64_t calibration_after_ns = perfbench::calibration_kernel_ns();
        const std::uint64_t hwm_kib = perfbench::proc_status_kib("VmHWM:");

        // run_serve's own predictor counters read zero through the wrapper.
        const auto* online = dynamic_cast<const OnlinePredictor*>(w->predictor.get());
        const TraceResult& r = serve.result;

        JsonLine out;
        out.field("workload", args.workload)
            .field("seed", args.seed)
            .field("traced", args.traced)
            .field("build_type", std::string(PERFBENCH_BUILD_TYPE))
            .field("obs", kObs)
            .field("audit", kAudit)
            .field("sanitizer", kSanitized)
            .field("setup_ns", args.t0_ns != 0 && setup_end_ns > args.t0_ns
                                   ? setup_end_ns - args.t0_ns
                                   : std::uint64_t{0})
            .field("wall_ns", end_ns - begin_ns)
            // The faster of the two: a preemption only ever slows one down.
            .field("calibration_ns", std::min(calibration_before_ns, calibration_after_ns))
            .field("reference_ns", perfbench::kReferenceNs)
            .field("exit_code", static_cast<std::uint64_t>(serve.exit_code))
            .field("violation", serve.violation)
            .field("arrivals", serve.arrivals)
            .field("shed", serve.shed)
            .field("requests", static_cast<std::uint64_t>(r.requests))
            .field("accepted", static_cast<std::uint64_t>(r.accepted))
            .field("rejected", static_cast<std::uint64_t>(r.rejected))
            .field("completed", static_cast<std::uint64_t>(r.completed))
            .field("deadline_misses", static_cast<std::uint64_t>(r.deadline_misses))
            .field("aborted", static_cast<std::uint64_t>(r.aborted))
            .field("fault_aborted", static_cast<std::uint64_t>(r.fault_aborted))
            .field("total_energy", r.total_energy)
            .hex("total_energy_bits", bits(r.total_energy))
            .field("activations", static_cast<std::uint64_t>(r.activations))
            .field("migrations", static_cast<std::uint64_t>(r.migrations))
            .field("plans_with_prediction", static_cast<std::uint64_t>(r.plans_with_prediction))
            .field("rescue_activations", static_cast<std::uint64_t>(r.rescue_activations))
            .field("latency_p50_us", serve.latency_p50_us)
            .field("latency_p99_us", serve.latency_p99_us)
            .field("vm_hwm_kib", hwm_kib)
            .field("predictor_predictions",
                   static_cast<std::uint64_t>(online != nullptr ? online->type_predictions() : 0))
            .field("predictor_hits",
                   static_cast<std::uint64_t>(online != nullptr ? online->type_hits() : 0))
            .hex("outcome_digest", outcome_digest(serve));
        if (args.traced) {
            out.field("source_calls", ledger.source.calls)
                .field("source_ns", ledger.source.ns)
                .field("observe_calls", ledger.observe.calls)
                .field("observe_ns", ledger.observe.ns)
                .field("predict_calls", ledger.predict.calls)
                .field("predict_ns", ledger.predict.ns)
                .field("decide_calls", ledger.decide.calls)
                .field("decide_ns", ledger.decide.ns)
                .field("decided", ledger.decided)
                .field("rescue_calls", ledger.rescue.calls)
                .field("rescue_ns", ledger.rescue.ns)
                .field("rss_half_kib", ledger.rss_half_kib)
                .field("rss_last_kib", ledger.rss_last_kib)
                .hex("decision_digest", ledger.decision_digest)
                .field("stage_solve_calls", stages.cell(obs::Stage::solve).calls)
                .field("stage_shard_solve_calls", stages.cell(obs::Stage::shard_solve).calls)
                .field("stage_prefilter_calls", stages.cell(obs::Stage::prefilter).calls)
                .field("stage_edf_simulate_calls", stages.cell(obs::Stage::edf_simulate).calls)
                .field("prefilter_feasible", stages.prefilter_feasible)
                .field("prefilter_infeasible", stages.prefilter_infeasible)
                .field("prefilter_unknown", stages.prefilter_unknown)
                .field("arena_high_water_bytes", stages.arena_high_water_bytes);
            if (ledger.edf_calls_in_rm.has_value())
                out.field("edf_calls_in_rm", *ledger.edf_calls_in_rm);
        }
        std::cout << out.str() << std::endl;
        return 0;
    } catch (const std::exception& error) {
        std::cerr << "perfbench_driver: " << error.what() << '\n';
        return 1;
    }
}
