/**
 * @file
 * Partition-parallel vs serial compiled evaluation on the Fig. 6/9
 * benchmark set (large builds): the netlist analogue of the paper's
 * §6.1 claim that RTL simulation scales when the design is split into
 * balanced processes communicating only at end-of-Vcycle barriers,
 * set against the cost model that decides whether netlist.parallel
 * partitions at all (netlist::partitionPays).
 *
 * Two tables, both in BENCH_parallel_evaluator.json:
 *
 *  - The rendezvous row: a design whose processes have empty tapes,
 *    pinned at P in {2, 4}.  Its per-cycle time over the same design
 *    at P = 1 is the cost of one rendezvous.  Divided by
 *    the serial tape's time per cost unit (the median over the designs
 *    below), it is the rendezvous in cost units — the source of
 *    netlist::kRendezvousCost.
 *  - Per design and merge strategy (communication-aware Balanced vs
 *    LPT, Fig. 9 / Table 4): the serial and straggler costs, the
 *    model's predicted speedup serial / (straggler + rendezvous), the
 *    process count the model picks, and the measured rates pinned at
 *    P in {1, 2, 4} (median of 3, P values interleaved).  The
 *    partition-balance bound totalCost/maxCost is what the partition
 *    would allow on enough otherwise-idle cores (cf. the Fig. 5 limit
 *    study).
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.hh"
#include "netlist/builder.hh"
#include "netlist/tape_evaluator.hh"

using namespace manticore;

namespace {

const std::vector<unsigned> kProcs = {1, 2, 4};
constexpr int kReps = 3;
constexpr int kRendezvousReps = 5;

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

/** One rate sample on a fresh engine, after 50 ms of warm-up: a
 *  freshly spawned pool on idle cores runs many times slower than a
 *  warm one. */
double
measure(const netlist::Netlist &nl, const netlist::EvalOptions &options,
        bool partitioned, uint64_t horizon,
        netlist::NetlistPartitionStats *stats = nullptr)
{
    netlist::TapeEvaluator eval(nl, options, partitioned);
    if (stats)
        *stats = eval.partitionStats();
    auto step = [&](uint64_t n) {
        return eval.run(n) == netlist::SimStatus::Ok;
    };
    // Small chunks: on oversubscribed hosts a parallel cycle can cost
    // scheduler quanta, and the budget check only runs between chunks.
    bench::measureRateKhz(step, horizon / 4, 0.05, 256);
    return bench::measureRateKhz(step, horizon - eval.cycle() - 8, 0.2,
                                 256);
}

netlist::EvalOptions
pinned(unsigned procs, MergeAlgo algo)
{
    netlist::EvalOptions options;
    options.numThreads = procs;
    options.mergeAlgo = algo;
    options.pinProcesses = true;
    return options;
}

/** `n` registers that each hold their value: every process's tape is
 *  empty, leaving only the rendezvous and a one-limb commit. */
netlist::Netlist
emptyTapes(unsigned n)
{
    netlist::CircuitBuilder b("empty_tapes");
    for (unsigned i = 0; i < n; ++i) {
        auto r = b.reg("r" + std::to_string(i), 64, i);
        b.next(r, r.read());
    }
    return b.build();
}

double
ratio(size_t num, size_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 1.0;
}

} // namespace

int
main()
{
    bench::printEnvironment(
        "Partition-parallel vs serial compiled evaluation "
        "(Fig. 6/9 designs, large builds, one-rendezvous Vcycle)");

    FILE *json = std::fopen("BENCH_parallel_evaluator.json", "w");
    if (json)
        std::fprintf(json,
                     "{\n  \"experiment\": \"parallel_evaluator\",\n"
                     "  \"hardware_threads\": %u,\n"
                     "  \"rendezvous_cost\": %zu,\n",
                     std::thread::hardware_concurrency(),
                     netlist::kRendezvousCost);

    // Rendezvous row.  LPT keeps zero-cost processes apart (Balanced
    // would merge them all: merging can never create a straggler).
    const netlist::Netlist empty = emptyTapes(4);
    const uint64_t kEmptyHorizon = uint64_t{1} << 40;
    std::vector<std::vector<double>> empty_khz(kProcs.size());
    for (int rep = 0; rep < kRendezvousReps; ++rep)
        for (size_t i = 0; i < kProcs.size(); ++i)
            empty_khz[i].push_back(
                measure(empty, pinned(kProcs[i], MergeAlgo::Lpt),
                        /*partitioned=*/true, kEmptyHorizon));
    const double empty_us1 = 1e3 / median(empty_khz[0]);
    std::vector<double> rendezvous_us(kProcs.size(), 0.0);
    std::printf("\nempty-tape rendezvous (median of %d):\n",
                kRendezvousReps);
    for (size_t i = 0; i < kProcs.size(); ++i) {
        double us = 1e3 / median(empty_khz[i]);
        rendezvous_us[i] = kProcs[i] > 1 ? us - empty_us1 : 0.0;
        std::printf("  P=%u  %9.1f kHz  %6.3f us/cycle  rendezvous "
                    "%6.3f us\n",
                    kProcs[i], median(empty_khz[i]), us, rendezvous_us[i]);
    }

    std::printf("\n%6s %4s | %6s %6s | %9s |", "bench", "algo", "serial",
                "strag4", "cmp kHz");
    for (unsigned p : kProcs)
        std::printf(" %4s%u kHz  spdup  pred resid |", "P=", p);
    std::printf(" model | %5s %6s\n", "sends", "bound");

    struct Row
    {
        std::string design;
        MergeAlgo algo;
        unsigned procs;
        size_t processes, model, serial_cost;
        double serial_khz, khz, predicted, residual;
        netlist::NetlistPartitionStats stats;
    };
    std::vector<Row> rows;
    std::vector<double> ns_per_cost, best_speedups, model_speedups, bounds,
        residuals;
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        uint64_t horizon = bench::measureHorizon(bm.name);
        netlist::Netlist nl = bm.build(horizon);

        // Every sample on a fresh engine, P values interleaved so a
        // drifting host skews them alike.
        std::vector<double> serial;
        std::vector<std::vector<double>> khz[2];
        std::vector<netlist::NetlistPartitionStats> stats[2];
        const MergeAlgo algos[2] = {MergeAlgo::Balanced, MergeAlgo::Lpt};
        for (int a = 0; a < 2; ++a) {
            khz[a].resize(kProcs.size());
            stats[a].resize(kProcs.size());
        }
        for (int rep = 0; rep < kReps; ++rep) {
            serial.push_back(
                measure(nl, {}, /*partitioned=*/false, horizon));
            for (int a = 0; a < 2; ++a)
                for (size_t i = 0; i < kProcs.size(); ++i)
                    khz[a][i].push_back(measure(
                        nl, pinned(kProcs[i], algos[a]),
                        /*partitioned=*/true, horizon,
                        &stats[a][i]));
        }
        const double serial_khz = median(serial);

        for (int a = 0; a < 2; ++a) {
            const netlist::NetlistPartitionStats &top = stats[a].back();
            const size_t serial_cost = top.serialCost;
            std::printf("%6s %4s | %6zu %6zu | %9.1f |", bm.name.c_str(),
                        a == 0 ? "B" : "L", serial_cost,
                        top.estimatedMaxCost, serial_khz);
            double best = 0.0;
            size_t model = 1;
            double model_speedup;
            for (size_t i = 0; i < kProcs.size(); ++i) {
                const netlist::NetlistPartitionStats &st = stats[a][i];
                const double rate = median(khz[a][i]);
                const double speedup =
                    serial_khz > 0 ? rate / serial_khz : 0.0;
                const double pred =
                    kProcs[i] == 1
                        ? 1.0
                        : ratio(serial_cost,
                                st.estimatedMaxCost +
                                    netlist::kRendezvousCost);
                const size_t chosen = kProcs[i] > 1 &&
                                              netlist::partitionPays(st, 1)
                                          ? st.mergedProcesses
                                          : 1;
                // What a measured parallel cycle costs, in this
                // design's serial cost units, beyond its straggler:
                // the rendezvous as the real design sees it.
                const double residual =
                    kProcs[i] == 1
                        ? 0.0
                        : static_cast<double>(serial_cost) / speedup -
                              static_cast<double>(st.estimatedMaxCost);
                std::printf(" %9.1f %5.2fx %5.2fx %5.0f |", rate, speedup,
                            pred, residual);
                best = std::max(best, speedup);
                rows.push_back({bm.name, algos[a], kProcs[i],
                                kProcs[i] == 1 ? 1 : st.mergedProcesses,
                                chosen, serial_cost, serial_khz, rate, pred,
                                residual, st});
                model = chosen;
            }
            // The model's pick at the widest P is either that
            // partition or one process: its measured rate is the
            // matching pinned column.
            model_speedup =
                median(model > 1 ? khz[a].back() : khz[a].front()) /
                serial_khz;
            const double bound = ratio(top.totalCost, top.estimatedMaxCost);
            std::printf(" %5zu | %5zu %5.2fx\n", model,
                        top.estimatedSends, bound);
            if (a == 0) {
                bounds.push_back(bound);
                best_speedups.push_back(best);
                model_speedups.push_back(model_speedup);
                residuals.push_back(rows.back().residual);
                ns_per_cost.push_back(1e6 / serial_khz /
                                      static_cast<double>(serial_cost));
            }
        }
    }

    const double ns_cost = median(ns_per_cost);
    std::printf("\nserial tape: %.2f ns per cost unit (median over "
                "designs)\n",
                ns_cost);
    for (size_t i = 1; i < kProcs.size(); ++i)
        std::printf("rendezvous at P=%u: %.3f us = %.0f cost units "
                    "(kRendezvousCost = %zu)\n",
                    kProcs[i], rendezvous_us[i],
                    rendezvous_us[i] * 1e3 / ns_cost,
                    netlist::kRendezvousCost);
    std::printf("residual at P=%u (median over designs, B): %.0f cost "
                "units\n",
                kProcs.back(), median(residuals));
    double gm_best = bench::geomean(best_speedups);
    double gm_model = bench::geomean(model_speedups);
    double gm_bound = bench::geomean(bounds);
    std::printf("geomean over designs (B): best pinned speedup %.2fx, "
                "the model's pick at P<=%u %.2fx, balance bound %.2fx\n",
                gm_best, kProcs.back(), gm_model, gm_bound);

    if (json) {
        std::fprintf(json, "  \"rendezvous\": [\n");
        for (size_t i = 0; i < kProcs.size(); ++i)
            std::fprintf(json,
                         "    {\"processes\": %u, \"khz\": %.2f, "
                         "\"rendezvous_us\": %.3f, "
                         "\"rendezvous_cost_units\": %.0f}%s\n",
                         kProcs[i], median(empty_khz[i]), rendezvous_us[i],
                         rendezvous_us[i] * 1e3 / ns_cost,
                         i + 1 < kProcs.size() ? "," : "");
        std::fprintf(json,
                     "  ],\n  \"ns_per_cost\": %.3f,\n"
                     "  \"median_residual_cost\": %.0f,\n  \"rows\": [\n",
                     ns_cost, median(residuals));
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::fprintf(
                json,
                "    {\"design\": \"%s\", \"algo\": \"%s\", "
                "\"threads\": %u, \"processes\": %zu, "
                "\"model_processes\": %zu, \"serial_cost\": %zu, "
                "\"straggler_cost\": %zu, \"predicted_speedup\": %.3f, "
                "\"residual_cost\": %.0f, "
                "\"serial_khz\": %.2f, \"parallel_khz\": %.2f, "
                "\"speedup\": %.3f, \"sends\": %zu, "
                "\"balance_bound\": %.3f}%s\n",
                r.design.c_str(), mergeAlgoName(r.algo), r.procs,
                r.processes, r.model, r.serial_cost,
                r.stats.estimatedMaxCost, r.predicted, r.residual,
                r.serial_khz, r.khz, r.khz / r.serial_khz,
                r.stats.estimatedSends,
                ratio(r.stats.totalCost, r.stats.estimatedMaxCost),
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n  \"geomean_best_speedup\": %.3f,\n"
                     "  \"geomean_model_speedup\": %.3f,\n"
                     "  \"geomean_balance_bound\": %.3f\n}\n",
                     gm_best, gm_model, gm_bound);
        std::fclose(json);
        std::printf("wrote BENCH_parallel_evaluator.json\n");
    }
    return 0;
}
