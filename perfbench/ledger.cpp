#include "ledger.hpp"

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/stage_timer.hpp"

namespace perfbench {

using namespace rmwp;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point begin, Clock::time_point end) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count());
}

void add(CallTimer& timer, Clock::time_point begin, Clock::time_point end) {
    ++timer.calls;
    timer.ns += elapsed_ns(begin, end);
}

void fold(std::uint64_t& digest, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        digest ^= (value >> (8 * byte)) & 0xffU;
        digest *= 0x100000001b3ULL;
    }
}

void fold(std::uint64_t& digest, const Decision& decision) {
    fold(digest, (decision.admitted ? 1U : 0U) | (decision.used_prediction ? 2U : 0U));
    fold(digest, static_cast<std::uint64_t>(decision.reason));
    for (const TaskAssignment& assignment : decision.assignments) {
        fold(digest, assignment.uid);
        fold(digest, assignment.resource);
    }
}

/// The stage profile's simulate_edf counter, when this build has one.
std::optional<std::uint64_t> edf_simulate_calls() {
#ifdef RMWP_OBS
    if (const obs::StageStats* stats = obs::stage_stats(); stats != nullptr)
        return stats->cell(obs::Stage::edf_simulate).calls;
#endif
    return std::nullopt;
}

/// Times one RM call and credits the simulate_edf calls made inside it.
class RmCall {
public:
    RmCall(Ledger& ledger, CallTimer& timer)
        : ledger_(ledger), timer_(timer), edf_before_(edf_simulate_calls()),
          begin_(Clock::now()) {}
    ~RmCall() {
        const auto end = Clock::now();
        add(timer_, begin_, end);
        if (const auto edf_after = edf_simulate_calls(); edf_before_ && edf_after)
            ledger_.edf_calls_in_rm =
                ledger_.edf_calls_in_rm.value_or(0) + (*edf_after - *edf_before_);
    }
    RmCall(const RmCall&) = delete;
    RmCall& operator=(const RmCall&) = delete;

private:
    Ledger& ledger_;
    CallTimer& timer_;
    std::optional<std::uint64_t> edf_before_;
    Clock::time_point begin_;
};

} // namespace

std::optional<Request> TimedSource::next() {
    const auto begin = Clock::now();
    std::optional<Request> request = inner_.next();
    add(ledger_.source, begin, Clock::now());
    if (request.has_value()) {
        ++delivered_;
        if (delivered_ == arrivals_ / 2) ledger_.rss_half_kib = proc_status_kib("VmRSS:");
        if (delivered_ == arrivals_) ledger_.rss_last_kib = proc_status_kib("VmRSS:");
    }
    return request;
}

void TimedPredictor::observe_arrival(const Request& request) {
    const auto begin = Clock::now();
    inner_.observe_arrival(request);
    add(ledger_.observe, begin, Clock::now());
}

std::vector<PredictedTask> TimedPredictor::predict_upcoming(Time now, std::size_t depth) {
    const auto begin = Clock::now();
    std::vector<PredictedTask> upcoming = inner_.predict_upcoming(now, depth);
    add(ledger_.predict, begin, Clock::now());
    return upcoming;
}

TimedRM::TimedRM(ResourceManager& inner, Ledger& ledger) : inner_(inner), ledger_(ledger) {
    set_shard_config(inner.shard_config());
}

Decision TimedRM::decide(const ArrivalContext& context) {
    Decision decision;
    {
        const RmCall call(ledger_, ledger_.decide);
        decision = inner_.decide(context);
    }
    ++ledger_.decided;
    fold(ledger_.decision_digest, decision);
    return decision;
}

void TimedRM::decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) {
    {
        const RmCall call(ledger_, ledger_.decide);
        inner_.decide_batch(batch, out);
    }
    // The RMs replace `out` wholesale; its last items.size() entries are this batch.
    for (std::size_t k = out.size() - batch.items.size(); k < out.size(); ++k) {
        ++ledger_.decided;
        fold(ledger_.decision_digest, out[k]);
    }
}

RescueDecision TimedRM::rescue(const RescueContext& context) {
    RescueDecision decision;
    {
        const RmCall call(ledger_, ledger_.rescue);
        decision = inner_.rescue(context);
    }
    for (const TaskAssignment& kept : decision.kept) {
        fold(ledger_.decision_digest, kept.uid);
        fold(ledger_.decision_digest, kept.resource);
    }
    for (const TaskUid aborted : decision.aborted) fold(ledger_.decision_digest, ~aborted);
    return decision;
}

std::uint64_t proc_status_kib(const char* field) {
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::size_t length = std::strlen(field);
    while (std::getline(status, line))
        if (line.compare(0, length, field) == 0) return std::stoull(line.substr(length));
    return 0;
}

} // namespace perfbench
