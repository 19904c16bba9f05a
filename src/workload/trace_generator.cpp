#include "workload/trace_generator.hpp"

#include "util/check.hpp"

namespace rmwp {

const char* to_string(DeadlineGroup group) noexcept {
    switch (group) {
    case DeadlineGroup::very_tight: return "VT";
    case DeadlineGroup::less_tight: return "LT";
    }
    return "unknown";
}

double TraceGenParams::deadline_coefficient_min() const noexcept {
    return group == DeadlineGroup::very_tight ? 1.5 : 2.0;
}

double TraceGenParams::deadline_coefficient_max() const noexcept {
    return group == DeadlineGroup::very_tight ? 2.0 : 6.0;
}

void TraceGenParams::validate() const {
    RMWP_EXPECT(length > 0);
    RMWP_EXPECT(interarrival_mean > 0.0);
    RMWP_EXPECT(interarrival_stddev >= 0.0);
    RMWP_EXPECT(burst_scale > 0.0);
    RMWP_EXPECT(lull_scale >= burst_scale);
    RMWP_EXPECT(phase_switch_probability >= 0.0 && phase_switch_probability <= 1.0);
    RMWP_EXPECT(type_correlation >= 0.0 && type_correlation <= 1.0);
}

Trace generate_trace(const Catalog& catalog, const TraceGenParams& params, Rng& rng) {
    params.validate();

    std::vector<Request> requests;
    requests.reserve(params.length);

    // Per-trace random successor permutation for correlated type streams.
    std::vector<TaskTypeId> successor(catalog.size());
    if (params.type_correlation > 0.0) {
        std::vector<TaskTypeId> shuffled(catalog.size());
        for (std::size_t t = 0; t < shuffled.size(); ++t) shuffled[t] = t;
        rng.shuffle(shuffled);
        // A single cycle through the shuffled order: every type has a
        // deterministic "next" a Markov predictor can learn.
        for (std::size_t t = 0; t < shuffled.size(); ++t)
            successor[shuffled[t]] = shuffled[(t + 1) % shuffled.size()];
    }

    // Draw order is part of the reproducibility contract: the extension
    // paths must not consume draws when disabled, so defaults regenerate
    // byte-identical paper traces.
    const double cv = params.interarrival_stddev / params.interarrival_mean;
    bool burst_phase =
        params.arrival_model == ArrivalModel::two_phase ? rng.bernoulli(0.5) : false;
    TaskTypeId previous_type = 0;
    double arrival_ms = 0.0;
    for (std::size_t j = 0; j < params.length; ++j) {
        if (j > 0) {
            double mean = params.interarrival_mean;
            if (params.arrival_model == ArrivalModel::two_phase) {
                if (rng.bernoulli(params.phase_switch_probability)) burst_phase = !burst_phase;
                mean *= burst_phase ? params.burst_scale : params.lull_scale;
            }
            // Gaps must stay positive; the floor is far below the mean, so
            // the truncation bias is negligible for the paper's CV of 1/3.
            arrival_ms += rng.gaussian_above(mean, mean * cv, mean * 0.01);
        }

        TaskTypeId type_id;
        if (j > 0 && params.type_correlation > 0.0 && rng.bernoulli(params.type_correlation)) {
            type_id = successor[previous_type];
        } else {
            type_id = rng.index(catalog.size());
        }
        previous_type = type_id;
        const TaskType& type = catalog.type(type_id);

        // RWCET: the WCET on a randomly selected executable resource.
        const auto& executable = type.executable_resources();
        const ResourceId picked = executable[rng.index(executable.size())];
        const Time rwcet = type.wcet(picked);
        const double coefficient =
            rng.uniform(params.deadline_coefficient_min(), params.deadline_coefficient_max());

        requests.push_back(Request{to_ticks(arrival_ms, TickRounding::nearest), type_id,
                                   scale_down(rwcet, coefficient)});
    }

    return Trace(std::move(requests));
}

std::vector<Trace> generate_traces(const Catalog& catalog, const TraceGenParams& params,
                                   std::size_t count, const Rng& rng) {
    std::vector<Trace> traces;
    traces.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
        Rng child = rng.derive(t);
        traces.push_back(generate_trace(catalog, params, child));
    }
    return traces;
}

} // namespace rmwp
