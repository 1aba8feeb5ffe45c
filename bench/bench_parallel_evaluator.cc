/**
 * @file
 * Partition-parallel vs serial compiled evaluation on the Fig. 6/9
 * benchmark set (large builds): the netlist analogue of the paper's
 * §6.1 claim that RTL simulation scales when the design is split into
 * balanced processes communicating only at end-of-Vcycle barriers.
 *
 * For every design the harness measures the serial (netlist.compiled)
 * rate, then sweeps the netlist.parallel preset over thread counts
 * and both merge strategies (communication-aware Balanced vs LPT,
 * Fig. 9 / Table 4).  Alongside the measured rate it reports the
 * partition-balance bound totalCost/maxCost — the speedup the
 * partition would allow on enough otherwise-idle cores — so the
 * partitioning quality is visible even on hosts with few hardware
 * threads (cf. the Fig. 5 limit study's single-thread note).  Rows
 * land in BENCH_parallel_evaluator.json.
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.hh"
#include "netlist/tape_evaluator.hh"

using namespace manticore;

namespace {

double
measure(netlist::EvaluatorBase &eval, uint64_t horizon, uint64_t chunk)
{
    eval.onDisplay = nullptr;
    return bench::measureRateKhz(
        [&](uint64_t n) {
            return eval.run(n) == netlist::SimStatus::Ok;
        },
        horizon - 8, 0.2, chunk);
}

} // namespace

int
main()
{
    bench::printEnvironment(
        "Partition-parallel vs serial compiled evaluation "
        "(Fig. 6/9 designs, large builds, two-barrier Vcycle)");

    const std::vector<unsigned> kThreads = {1, 2, 4, 8};

    std::printf("%8s %5s | %10s |", "bench", "algo", "serial kHz");
    for (unsigned t : kThreads)
        std::printf("  %3ut kHz  spdup", t);
    std::printf(" | %5s %6s %6s\n", "procs", "sends", "bound");

    FILE *json = std::fopen("BENCH_parallel_evaluator.json", "w");
    if (json)
        std::fprintf(json,
                     "{\n  \"experiment\": \"parallel_evaluator\",\n"
                     "  \"hardware_threads\": %u,\n  \"rows\": [\n",
                     std::thread::hardware_concurrency());

    std::vector<double> best_speedups, bounds;
    bool first = true;
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        uint64_t horizon = bench::measureHorizon(bm.name);
        netlist::Netlist nl = bm.build(horizon);

        netlist::TapeEvaluator serial(nl);
        double serial_khz = measure(serial, horizon, 2048);

        double best = 0.0;
        for (MergeAlgo algo : {MergeAlgo::Balanced, MergeAlgo::Lpt}) {
            std::printf("%8s %5s | %10.1f |", bm.name.c_str(),
                        mergeAlgoName(algo), serial_khz);
            netlist::NetlistPartitionStats stats;
            for (unsigned t : kThreads) {
                netlist::TapeEvaluator par(nl, {t, algo},
                                           netlist::EvalMode::Parallel);
                // Small chunks: on oversubscribed hosts a parallel
                // cycle can cost scheduler quanta, and the budget
                // check only runs between chunks.
                double khz = measure(par, horizon, 256);
                double speedup =
                    serial_khz > 0 ? khz / serial_khz : 0.0;
                stats = par.partitionStats();
                std::printf("  %7.1f  %5.2fx", khz, speedup);
                best = std::max(best, speedup);
                if (json) {
                    std::fprintf(
                        json,
                        "%s    {\"design\": \"%s\", \"algo\": \"%s\", "
                        "\"threads\": %u, \"processes\": %zu, "
                        "\"serial_khz\": %.2f, \"parallel_khz\": %.2f, "
                        "\"speedup\": %.3f, \"sends\": %zu, "
                        "\"balance_bound\": %.3f}",
                        first ? "" : ",\n", bm.name.c_str(),
                        mergeAlgoName(algo), t, par.numProcesses(),
                        serial_khz, khz, speedup, stats.estimatedSends,
                        stats.estimatedMaxCost
                            ? static_cast<double>(stats.totalCost) /
                                  static_cast<double>(
                                      stats.estimatedMaxCost)
                            : 1.0);
                    first = false;
                }
            }
            double bound =
                stats.estimatedMaxCost
                    ? static_cast<double>(stats.totalCost) /
                          static_cast<double>(stats.estimatedMaxCost)
                    : 1.0;
            if (algo == MergeAlgo::Balanced)
                bounds.push_back(bound);
            std::printf(" | %5zu %6zu %5.2fx\n", stats.mergedProcesses,
                        stats.estimatedSends, bound);
        }
        best_speedups.push_back(best);
    }

    double gm_speedup = bench::geomean(best_speedups);
    double gm_bound = bench::geomean(bounds);
    std::printf("\ngeomean best measured speedup: %.2fx   "
                "geomean balance bound (B, 8 procs max): %.2fx\n",
                gm_speedup, gm_bound);
    std::printf(
        "note: on a single-hardware-thread host the measured columns "
        "show the\ntwo-barrier synchronisation penalty directly "
        "(speedup <= 1, as in Fig. 5);\nthe balance bound is what the "
        "partition supports once cores exist.\n");
    if (json) {
        std::fprintf(json,
                     "\n  ],\n  \"geomean_best_speedup\": %.3f,\n"
                     "  \"geomean_balance_bound\": %.3f\n}\n",
                     gm_speedup, gm_bound);
        std::fclose(json);
        std::printf("wrote BENCH_parallel_evaluator.json\n");
    }
    return 0;
}
