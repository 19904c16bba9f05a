#include "predict/noisy.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/table.hpp"

namespace rmwp {

NoisyPredictor::NoisyPredictor(const Catalog& catalog, double type_accuracy, double time_nrmse,
                               Rng rng, Time overhead)
    : catalog_(&catalog),
      type_accuracy_(type_accuracy),
      time_nrmse_(time_nrmse),
      rng_(rng),
      overhead_(overhead) {
    RMWP_EXPECT(type_accuracy_ >= 0.0 && type_accuracy_ <= 1.0);
    RMWP_EXPECT(time_nrmse_ >= 0.0);
    RMWP_EXPECT(overhead_ >= 0);
}

std::string NoisyPredictor::name() const {
    return "noisy(type=" + format_fixed(type_accuracy_, 2) +
           ",nrmse=" + format_fixed(time_nrmse_, 2) + ")";
}

std::optional<PredictedTask> NoisyPredictor::predict_next(const Trace& trace, std::size_t index,
                                                          Time now) {
    if (index + 1 >= trace.size()) return std::nullopt;
    mean_interarrival_ = trace.size() >= 2 ? trace.mean_interarrival() : 0.0;
    return perturb(trace.request(index + 1), now);
}

std::vector<PredictedTask> NoisyPredictor::predict_horizon(const Trace& trace, std::size_t index,
                                                           Time now, std::size_t depth) {
    std::vector<PredictedTask> horizon;
    horizon.reserve(depth);
    mean_interarrival_ = trace.size() >= 2 ? trace.mean_interarrival() : 0.0;
    for (std::size_t k = 1; k <= depth && index + k < trace.size(); ++k)
        horizon.push_back(perturb(trace.request(index + k), now));
    return horizon;
}

PredictedTask NoisyPredictor::perturb(const Request& truth, Time now) {
    PredictedTask predicted;
    predicted.type = truth.type;
    if (catalog_->size() > 1 && !rng_.bernoulli(type_accuracy_))
        predicted.type = rng_.index_excluding(catalog_->size(), truth.type);

    Time arrival = truth.arrival;
    if (time_nrmse_ > 0.0 && mean_interarrival_ > 0.0)
        arrival += std::llround(rng_.gaussian(0.0, time_nrmse_ * mean_interarrival_));
    predicted.arrival = std::max(arrival, now);
    predicted.relative_deadline = truth.relative_deadline;
    return predicted;
}

} // namespace rmwp
