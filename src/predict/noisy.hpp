// Controlled-accuracy prediction for the Sec 5.4 sweeps.
//
// Starting from the ground truth, two independent error processes are
// applied, matching the paper's definitions exactly:
//  * task type: with probability (1 - type_accuracy) the predicted identity
//    is replaced by a uniformly random *other* type ("the task identity is
//    predicted incorrectly with a probability of 25% at each prediction
//    step", Fig 4a);
//  * arrival time: zero-mean Gaussian noise whose standard deviation is
//    time_nrmse * mean interarrival, so the realised normalised RMSE over a
//    trace converges to the dialled value ("0.75 accuracy value means that
//    the normalised root mean square error ... is 0.25", Fig 4b).
// The predicted deadline stays truthful: the paper treats deadline purely as
// a request attribute and sweeps only identity and timing errors.
#pragma once

#include "predict/predictor.hpp"
#include "util/rng.hpp"

namespace rmwp {

class NoisyPredictor final : public Predictor {
public:
    NoisyPredictor(const Catalog& catalog, double type_accuracy, double time_nrmse, Rng rng,
                   Time overhead = 0);

    [[nodiscard]] std::string name() const override;
    void observe(const Trace&, std::size_t) override {}
    [[nodiscard]] std::optional<PredictedTask> predict_next(const Trace& trace, std::size_t index,
                                                            Time now) override;
    [[nodiscard]] std::vector<PredictedTask> predict_horizon(const Trace& trace,
                                                             std::size_t index, Time now,
                                                             std::size_t depth) override;
    [[nodiscard]] Time overhead() const noexcept override { return overhead_; }

private:
    [[nodiscard]] PredictedTask perturb(const Request& truth, Time now);

    const Catalog* catalog_;
    double type_accuracy_;
    double time_nrmse_;
    Rng rng_;
    Time overhead_;
    double mean_interarrival_ = 0.0;
};

} // namespace rmwp
