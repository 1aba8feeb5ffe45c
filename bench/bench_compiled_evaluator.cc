/**
 * @file
 * Reference vs compiled netlist evaluation rate on the Fig. 6
 * benchmark set at the paper's >= 64-core scale (the same large
 * builds Fig. 7 / Table 3 use).  The reference Evaluator allocates a
 * BitVector per node per cycle; the TapeEvaluator runs the same
 * DAG as a level-ordered flat tape over a preallocated limb arena,
 * paying one dispatch per same-opcode run.  The measured ratio is the
 * cost of that allocation + indirection.  Each rate is the median of
 * kSamples windows, each on a fresh engine; the rows, with quartiles,
 * n, tape ops and dispatches per Vcycle, go to
 * BENCH_compiled_evaluator.json.
 */

#include <cstdio>

#include "bench/common.hh"
#include "netlist/evaluator.hh"
#include "netlist/tape_evaluator.hh"

using namespace manticore;

namespace {

constexpr unsigned kSamples = 5;

/** One 0.2 s window of batched run() calls on a fresh engine. */
template <typename Eval>
double
measure(const netlist::Netlist &nl, uint64_t horizon, uint64_t chunk)
{
    Eval eval(nl);
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
        "Compiled tape evaluator vs reference netlist evaluator "
        "(Fig. 6 designs, large builds)");

    std::printf("%8s  %10s  %10s  %9s  %8s  %10s  %10s\n", "bench",
                "ref kHz", "tape kHz", "speedup", "tape ops",
                "dispatches", "arena KiB");

    FILE *json = std::fopen("BENCH_compiled_evaluator.json", "w");
    if (json)
        std::fprintf(json,
                     "{\n  \"experiment\": \"compiled_evaluator\",\n"
                     "  \"rows\": [\n");

    std::vector<double> speedups;
    bool first = true;
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        uint64_t horizon = bench::measureHorizon(bm.name);
        netlist::Netlist nl = bm.build(horizon);

        // The reference engine can be slow enough that the default
        // 2048-cycle chunk overshoots the budget; use a smaller one.
        const bench::RateSample ref = bench::medianRateKhz(
            [&] { return measure<netlist::Evaluator>(nl, horizon, 256); },
            kSamples);
        const bench::RateSample tape = bench::medianRateKhz(
            [&] {
                return measure<netlist::TapeEvaluator>(nl, horizon, 2048);
            },
            kSamples);

        netlist::TapeEvaluator shape(nl);
        double speedup = ref.median > 0 ? tape.median / ref.median : 0.0;
        speedups.push_back(speedup);
        std::printf("%8s  %10.1f  %10.1f  %8.2fx  %8zu  %10zu  %10.1f\n",
                    bm.name.c_str(), ref.median, tape.median, speedup,
                    shape.tapeLength(), shape.tapeDispatches(),
                    shape.arenaLimbs() * 8.0 / 1024.0);
        if (json) {
            std::fprintf(json, "%s    {\"design\": \"%s\", ",
                         first ? "" : ",\n", bm.name.c_str());
            bench::writeRate(json, "reference_khz", ref);
            bench::writeRate(json, "compiled_khz", tape);
            std::fprintf(json,
                         "\"n\": %u, \"speedup\": %.2f, "
                         "\"tape_ops\": %zu, \"dispatches\": %zu}",
                         kSamples, speedup, shape.tapeLength(),
                         shape.tapeDispatches());
            first = false;
        }
    }

    double gm = bench::geomean(speedups);
    std::printf("\ngeomean speedup: %.2fx\n", gm);
    if (json) {
        std::fprintf(json,
                     "\n  ],\n  \"geomean_speedup\": %.2f\n}\n", gm);
        std::fclose(json);
        std::printf("wrote BENCH_compiled_evaluator.json\n");
    }
    return 0;
}
