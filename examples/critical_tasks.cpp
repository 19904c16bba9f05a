// Mixed-criticality operation (Sec 2): safety-critical tasks get
// design-time reservations that the runtime manager must honour with
// absolute priority, while the adaptive, prediction-aided policy manages
// the remaining capacity.
//
// This example reserves a periodic control loop on the GPU and a monitor on
// CPU1, then measures how the adaptive workload's rejection changes with
// and without prediction — the reservations never miss, whatever happens to
// the adaptive tasks.
#include <iostream>

#include "core/heuristic_rm.hpp"
#include "core/reservation.hpp"
#include "predict/oracle.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/trace_generator.hpp"

int main() {
    using namespace rmwp;

    const Platform platform = make_paper_platform();
    Rng rng(2026);
    Rng catalog_rng = rng.derive(1);
    const Catalog catalog = generate_catalog(platform, CatalogParams{}, catalog_rng);

    // 40 % of the GPU and 25 % of CPU1 are spoken for at design time.
    const ReservationTable reservations({
        CriticalTask{"engine-control", /*resource=*/5, /*period=*/ms(20), /*offset=*/0,
                     /*duration=*/ms(8), /*energy=*/3.0},
        CriticalTask{"health-monitor", /*resource=*/0, /*period=*/ms(40), /*offset=*/ms(10),
                     /*duration=*/ms(10), /*energy=*/2.0},
    });

    std::cout << "critical reservations:\n";
    for (const CriticalTask& task : reservations.tasks()) {
        std::cout << "  " << task.name << " on " << platform.resource(task.resource).name()
                  << ": " << to_ms(task.duration) << " ms every " << to_ms(task.period) << " ms ("
                  << format_fixed(100.0 * task.utilization(), 0) << " % of the resource)\n";
    }
    std::cout << '\n';

    TraceGenParams params;
    params.length = 300;
    const std::size_t trace_count = 12;

    Table table({"reservations", "predictor", "adaptive rejection %", "critical energy (J)"});
    for (const bool reserved : {false, true}) {
        for (const bool predict : {false, true}) {
            RunningStats rejection;
            RunningStats critical_energy;
            for (std::size_t t = 0; t < trace_count; ++t) {
                Rng trace_rng = rng.derive(100 + t);
                const Trace trace = generate_trace(catalog, params, trace_rng);
                HeuristicRM rm;
                TraceResult result;
                if (predict) {
                    OraclePredictor oracle;
                    result = reserved ? simulate_trace(platform, catalog, trace, rm, oracle,
                                                       reservations)
                                      : simulate_trace(platform, catalog, trace, rm, oracle);
                } else {
                    NullPredictor off;
                    result = reserved
                                 ? simulate_trace(platform, catalog, trace, rm, off, reservations)
                                 : simulate_trace(platform, catalog, trace, rm, off);
                }
                rejection.add(result.rejection_percent());
                critical_energy.add(result.critical_energy);
            }
            table.row()
                .cell(reserved ? "on" : "off")
                .cell(predict ? "on" : "off")
                .cell(rejection.mean())
                .cell(critical_energy.mean(), 1);
        }
    }
    table.print(std::cout);

    std::cout << "\nReservations shrink the adaptive capacity (higher rejection), but the\n"
                 "critical windows execute exactly on schedule either way — and prediction\n"
                 "still helps the adaptive share.\n";
    return 0;
}
