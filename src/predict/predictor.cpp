#include "predict/predictor.hpp"

#include "predict/noisy.hpp"
#include "predict/online.hpp"
#include "predict/oracle.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace rmwp {

std::string PredictorSpec::label() const {
    switch (kind) {
    case Kind::none: return "off";
    case Kind::oracle:
        return overhead > 0 ? "on(oh=" + format_fixed(to_ms(overhead), 2) + ")" : "on";
    case Kind::noisy:
        return "noisy(type=" + format_fixed(type_accuracy, 2) +
               ",nrmse=" + format_fixed(time_nrmse, 2) + ")";
    case Kind::online: return "online";
    }
    return "unknown";
}

std::unique_ptr<Predictor> make_predictor(const PredictorSpec& spec, const Catalog& catalog,
                                          Rng rng) {
    switch (spec.kind) {
    case PredictorSpec::Kind::none: return std::make_unique<NullPredictor>();
    case PredictorSpec::Kind::oracle: return std::make_unique<OraclePredictor>(spec.overhead);
    case PredictorSpec::Kind::noisy:
        return std::make_unique<NoisyPredictor>(catalog, spec.type_accuracy, spec.time_nrmse, rng,
                                                spec.overhead);
    case PredictorSpec::Kind::online:
        return std::make_unique<OnlinePredictor>(catalog, spec.overhead);
    }
    RMWP_ENSURE(false);
}

} // namespace rmwp
