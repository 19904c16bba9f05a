// The benchmark's four serve workloads (README.md explains why each exists).
//
// A workload owns everything run_serve() needs: platform, catalog, resource
// manager, predictor, arrival source and serve configuration.  The platform
// and catalog are fixed per workload (catalog seed 42); the run seed drives
// the arrival stream, the execution-time draws and the fault schedule, so
// the same seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "platform/platform.hpp"
#include "predict/predictor.hpp"
#include "serve/arrival_source.hpp"
#include "serve/serve.hpp"
#include "workload/catalog.hpp"

namespace perfbench {

/// Synthetic arrivals collapsed into bursts: every run of `burst`
/// consecutive requests shares the first member's arrival instant.  Types,
/// relative deadlines and the mean per-request rate are the inner source's.
class BurstSource final : public rmwp::ArrivalSource {
public:
    BurstSource(const rmwp::Catalog& catalog, const rmwp::SyntheticSourceParams& params,
                std::size_t burst)
        : inner_(catalog, params), burst_(burst) {}

    [[nodiscard]] std::optional<rmwp::Request> next() override;
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] rmwp::SourceCursor cursor() const noexcept override { return {}; }
    void seek(const rmwp::SourceCursor&) override;

private:
    rmwp::SyntheticArrivalSource inner_;
    std::size_t burst_;
    std::size_t in_burst_ = 0; ///< members still owed at burst_arrival_
    rmwp::Time burst_arrival_ = 0.0;
};

struct Workload {
    std::string name;
    std::unique_ptr<rmwp::Platform> platform;
    std::unique_ptr<rmwp::Catalog> catalog;
    std::unique_ptr<rmwp::ResourceManager> rm;
    std::unique_ptr<rmwp::Predictor> predictor;
    std::unique_ptr<rmwp::ArrivalSource> source;
    rmwp::ServeConfig config;
};

/// Names accepted by make_workload, in README order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` for `arrivals` requests drawn from `seed`.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      std::uint64_t arrivals);

} // namespace perfbench
