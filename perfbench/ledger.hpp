// Traced-run decorators: wrap each layer's public interface, time every call
// into it with std::chrono::steady_clock, and count the calls.
//
// Source, predictor and resource manager are called only from the serve
// thread and never from inside one another, so their busy times are
// disjoint; the rest of run_serve's wall time is the engine loop (engine
// advance, event drain, schedule rebuild, backlog and monitor publishing).
//
// Pitfalls the decorators handle:
//   * run_serve recognises the online predictor by dynamic_cast, which a
//     wrapper defeats; its hit counters are read from the inner predictor.
//   * the wrapper RM copies the inner RM's shard_config();
//   * simulate_edf calls made inside the RM are the difference of the stage
//     profile's edf_simulate counter across each RM call (RMWP_OBS builds
//     only; `edf_calls_in_rm` stays absent otherwise).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "predict/predictor.hpp"
#include "serve/arrival_source.hpp"

namespace perfbench {

/// Calls and busy nanoseconds of one interface method.
struct CallTimer {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

struct Ledger {
    CallTimer source;
    CallTimer observe;
    CallTimer predict;
    CallTimer decide;       ///< decide + decide_batch activations
    std::uint64_t decided = 0; ///< candidates those activations decided
    CallTimer rescue;
    std::optional<std::uint64_t> edf_calls_in_rm;
    std::uint64_t rss_half_kib = 0; ///< VmRSS when the halfway arrival is delivered
    std::uint64_t rss_last_kib = 0; ///< VmRSS when the last arrival is delivered
    std::uint64_t decision_digest = 0xcbf29ce484222325ULL; ///< FNV-1a over every verdict
};

class TimedSource final : public rmwp::ArrivalSource {
public:
    /// `arrivals` is the run length, used to pick the two RSS sample points.
    TimedSource(rmwp::ArrivalSource& inner, Ledger& ledger, std::uint64_t arrivals)
        : inner_(inner), ledger_(ledger), arrivals_(arrivals) {}

    [[nodiscard]] std::optional<rmwp::Request> next() override;
    [[nodiscard]] std::uint64_t parse_errors() const noexcept override {
        return inner_.parse_errors();
    }
    [[nodiscard]] bool seekable() const noexcept override { return inner_.seekable(); }
    [[nodiscard]] rmwp::SourceCursor cursor() const noexcept override { return inner_.cursor(); }
    void seek(const rmwp::SourceCursor& cursor) override { inner_.seek(cursor); }

private:
    rmwp::ArrivalSource& inner_;
    Ledger& ledger_;
    std::uint64_t arrivals_;
    std::uint64_t delivered_ = 0;
};

class TimedPredictor final : public rmwp::Predictor {
public:
    TimedPredictor(rmwp::Predictor& inner, Ledger& ledger) : inner_(inner), ledger_(ledger) {}

    [[nodiscard]] std::string name() const override { return inner_.name(); }
    void observe(const rmwp::Trace& trace, std::size_t index) override {
        inner_.observe(trace, index);
    }
    [[nodiscard]] std::optional<rmwp::PredictedTask> predict_next(const rmwp::Trace& trace,
                                                                  std::size_t index,
                                                                  rmwp::Time now) override {
        return inner_.predict_next(trace, index, now);
    }
    [[nodiscard]] rmwp::Time overhead() const noexcept override { return inner_.overhead(); }

    void observe_arrival(const rmwp::Request& request) override;
    [[nodiscard]] std::vector<rmwp::PredictedTask> predict_upcoming(rmwp::Time now,
                                                                    std::size_t depth) override;

private:
    rmwp::Predictor& inner_;
    Ledger& ledger_;
};

class TimedRM final : public rmwp::ResourceManager {
public:
    TimedRM(rmwp::ResourceManager& inner, Ledger& ledger);

    [[nodiscard]] rmwp::Decision decide(const rmwp::ArrivalContext& context) override;
    void decide_batch(const rmwp::BatchArrivalContext& batch,
                      std::vector<rmwp::Decision>& out) override;
    [[nodiscard]] rmwp::RescueDecision rescue(const rmwp::RescueContext& context) override;
    [[nodiscard]] std::string name() const override { return inner_.name(); }

private:
    rmwp::ResourceManager& inner_;
    Ledger& ledger_;
};

/// VmRSS / VmHWM of this process in KiB (0 when /proc is unavailable).
[[nodiscard]] std::uint64_t proc_status_kib(const char* field);

} // namespace perfbench
