/**
 * @file
 * Reference vs flat-tape functional ISA interpretation rate on the
 * compiled Fig. 6 benchmark programs.  The reference Interpreter walks
 * the scheduled Instruction structs — including every NOP hazard slot
 * the scheduler inserted — and re-decodes operands each time; the
 * TapeInterpreter runs the same program as a pre-decoded, NOP-elided,
 * run-batched op tape over one flat register array.  The measured ratio
 * is the cost of that re-decoding + padding.  Each rate is the median
 * of kSamples windows, each on a fresh engine; the rows, with
 * quartiles and n, go to BENCH_interpreter_tape.json.
 */

#include <cstdio>

#include "bench/common.hh"
#include "compiler/compiler.hh"
#include "engine/adapters.hh"
#include "isa/tape_interpreter.hh"
#include "runtime/host.hh"

using namespace manticore;

namespace {

constexpr unsigned kSamples = 5;

/** One 0.2 s window of stepVcycle calls on a fresh engine. */
template <typename Interp>
double
measure(const isa::Program &program, const isa::MachineConfig &config,
        uint64_t horizon, uint64_t chunk)
{
    Interp interp(program, config);
    runtime::Host host(program, interp.globalMemory());
    host.attach(engine::wrap(interp));
    return bench::measureRateKhz(
        [&](uint64_t n) {
            // stepVcycle per cycle on BOTH engines so the measured
            // ratio isolates the tape's dispatch/pre-decode win; the
            // batched run(n) path is measured separately by
            // bench_engine_batch.
            for (uint64_t i = 0; i < n; ++i)
                if (interp.stepVcycle() != isa::RunStatus::Running)
                    return false;
            return true;
        },
        horizon - 8, 0.2, chunk);
}

void
writeRate(FILE *json, const char *key, const bench::RateSample &r)
{
    std::fprintf(json,
                 "\"%s\": %.2f, \"%s_q1\": %.2f, \"%s_q3\": %.2f, ",
                 key, r.median, key, r.q1, key, r.q3);
}

} // namespace

int
main()
{
    bench::printEnvironment(
        "Flat-tape vs reference functional ISA interpreter "
        "(compiled Fig. 6 designs, 6x6 grid)");

    std::printf("%8s  %10s  %10s  %9s  %9s  %9s  %7s\n", "bench",
                "ref kHz", "tape kHz", "speedup", "body ops", "tape ops",
                "runs");

    FILE *json = std::fopen("BENCH_interpreter_tape.json", "w");
    if (json)
        std::fprintf(json,
                     "{\n  \"experiment\": \"interpreter_tape\",\n"
                     "  \"rows\": [\n");

    std::vector<double> speedups;
    bool first = true;
    for (const designs::Benchmark &bm : designs::allBenchmarks()) {
        uint64_t horizon = bench::measureHorizon(bm.name);
        netlist::Netlist nl = bm.build(horizon);

        compiler::CompileOptions opts;
        opts.config.gridX = opts.config.gridY = 6;
        compiler::CompileResult cr = compiler::compile(nl, opts);
        size_t body_slots = 0;
        for (const auto &proc : cr.program.processes)
            body_slots += proc.body.size();

        const bench::RateSample ref = bench::medianRateKhz(
            [&] {
                return measure<isa::Interpreter>(cr.program, opts.config,
                                                 horizon, 64);
            },
            kSamples);
        const bench::RateSample tape = bench::medianRateKhz(
            [&] {
                return measure<isa::TapeInterpreter>(
                    cr.program, opts.config, horizon, 256);
            },
            kSamples);

        isa::TapeInterpreter shape(cr.program, opts.config);
        double speedup = ref.median > 0 ? tape.median / ref.median : 0.0;
        speedups.push_back(speedup);
        std::printf("%8s  %10.1f  %10.1f  %8.2fx  %9zu  %9zu  %7zu\n",
                    bm.name.c_str(), ref.median, tape.median, speedup,
                    body_slots, shape.tapeLength(), shape.dispatches());
        if (json) {
            std::fprintf(json, "%s    {\"design\": \"%s\", ",
                         first ? "" : ",\n", bm.name.c_str());
            writeRate(json, "reference_khz", ref);
            writeRate(json, "tape_khz", tape);
            std::fprintf(json,
                         "\"n\": %u, "
                         "\"speedup\": %.2f, "
                         "\"body_slots\": %zu, "
                         "\"tape_ops\": %zu, "
                         "\"nops_elided\": %zu, "
                         "\"dispatch_runs\": %zu}",
                         kSamples, speedup, body_slots,
                         shape.tapeLength(), shape.nopsElided(),
                         shape.dispatches());
            first = false;
        }
    }

    double gm = bench::geomean(speedups);
    std::printf("\ngeomean speedup: %.2fx\n", gm);
    if (json) {
        std::fprintf(json,
                     "\n  ],\n  \"geomean_speedup\": %.2f\n}\n", gm);
        std::fclose(json);
        std::printf("wrote BENCH_interpreter_tape.json\n");
    }
    return 0;
}
