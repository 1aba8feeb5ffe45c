/**
 * @file
 * Runtime tests: host exception servicing (display reassembly from
 * global memory, finish, assertion failure), the Simulation facade,
 * and the encode/ship/decode/run loop.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "engine/adapters.hh"
#include "designs/designs.hh"
#include "isa/encode.hh"
#include "machine/machine.hh"
#include "netlist/builder.hh"
#include "netlist/evaluator.hh"
#include "runtime/host.hh"
#include "runtime/simulation.hh"

using namespace manticore;

namespace {

netlist::Netlist
wideDisplayDesign()
{
    // Displays a 40-bit value (3 chunks) so argument reassembly from
    // global memory is exercised across words.
    netlist::CircuitBuilder b("wide_display");
    auto c = b.reg("c", 40, 0xfffffffff0ull & 0xffffffffffull);
    b.next(c, c.read() + b.lit(40, 1));
    b.display(c.read().bit(0) & !c.read().bit(1), "val=%d",
              {c.read()});
    b.finish(c.read() == b.lit(40, 0xfffffffff8ull));
    return b.build();
}

} // namespace

TEST(Runtime, WideDisplayArgsReassembled)
{
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    runtime::Simulation sim(wideDisplayDesign(), opts);
    EXPECT_EQ(sim.run(100), isa::RunStatus::Finished);
    ASSERT_FALSE(sim.displayLog().empty());
    // 0xfffffffff1 = 1099511627761.
    EXPECT_EQ(sim.displayLog()[0], "val=1099511627761");
}

TEST(Runtime, AssertFailureReportsMessage)
{
    netlist::CircuitBuilder b("failing");
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    b.assertAlways(b.lit(1, 1), c.read() < b.lit(16, 4),
                   "counter escaped");
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 1;
    runtime::Simulation sim(b.build(), opts);
    EXPECT_EQ(sim.run(100), isa::RunStatus::Failed);
    EXPECT_NE(sim.host().failureMessage().find("counter escaped"),
              std::string::npos);
}

TEST(Runtime, DisplayOrderingMatchesEvaluator)
{
    // Compare the full display transcript across the reference
    // evaluator and the machine for a design with several displays.
    netlist::Netlist nl = designs::buildBlur(48);
    netlist::Evaluator ref(nl);
    ref.run(64);

    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 3;
    runtime::Simulation sim(designs::buildBlur(48), opts);
    sim.run(64);
    EXPECT_EQ(sim.displayLog(), ref.displayLog());
}

TEST(Runtime, EncodedProgramRunsIdentically)
{
    netlist::Netlist nl = designs::buildJpeg(128);
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    compiler::CompileResult cr = compiler::compile(nl, opts);

    isa::Program shipped =
        isa::decodeProgram(isa::encodeProgram(cr.program));

    machine::Machine direct(cr.program, opts.config);
    runtime::Host dhost(cr.program, direct.globalMemory());
    dhost.attach(engine::wrap(direct));
    machine::Machine remote(shipped, opts.config);
    runtime::Host rhost(shipped, remote.globalMemory());
    rhost.attach(engine::wrap(remote));

    EXPECT_EQ(direct.run(140), isa::RunStatus::Finished);
    EXPECT_EQ(remote.run(140), isa::RunStatus::Finished);
    EXPECT_EQ(direct.perf().vcycles, remote.perf().vcycles);
    EXPECT_EQ(dhost.displayLog(), rhost.displayLog());
}

TEST(Runtime, CrossCheckPassesWithEveryGoldenEngine)
{
    // The golden-model engine behind Simulation's lockstep
    // cross-check is a knob, not hard-coded to the reference
    // evaluator: all three engines must agree with the machine.
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 3;
    for (const std::string mode :
         {"netlist.reference", "netlist.compiled", "netlist.parallel"}) {
        netlist::EvalOptions eopts;
        eopts.numThreads = 2;
        eopts.pinProcesses = true;
        runtime::Simulation sim(designs::buildBlur(128), opts, mode,
                                eopts);
        EXPECT_EQ(sim.goldenEngine(), mode);
        EXPECT_EQ(sim.runCrossChecked(64), isa::RunStatus::Running)
            << sim.divergence();
        EXPECT_TRUE(sim.divergence().empty()) << sim.divergence();
        EXPECT_EQ(sim.vcycles(), 64u);
    }
}

TEST(Runtime, CrossCheckRunsToFinish)
{
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    runtime::Simulation sim(wideDisplayDesign(), opts,
                            "netlist.parallel",
                            {2, MergeAlgo::Balanced, true});
    EXPECT_EQ(sim.runCrossChecked(100), isa::RunStatus::Finished)
        << sim.divergence();
    EXPECT_TRUE(sim.divergence().empty());
}

TEST(Runtime, CrossCheckResyncsAfterPlainRun)
{
    // Plain run() segments advance only the machine; the golden model
    // must catch up instead of reporting a phantom divergence.
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 3;
    runtime::Simulation sim(designs::buildBlur(128), opts,
                            "netlist.compiled");
    EXPECT_EQ(sim.runCrossChecked(8), isa::RunStatus::Running);
    EXPECT_EQ(sim.run(8), isa::RunStatus::Running);
    EXPECT_EQ(sim.runCrossChecked(8), isa::RunStatus::Running)
        << sim.divergence();
    EXPECT_TRUE(sim.divergence().empty()) << sim.divergence();
    EXPECT_EQ(sim.vcycles(), 24u);
}

TEST(Runtime, CrossCheckAgreesOnAssertFailure)
{
    // Both engines fail the same assertion: that is agreement (empty
    // divergence), not a cross-check mismatch.
    netlist::CircuitBuilder b("failing");
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    b.assertAlways(b.lit(1, 1), c.read() < b.lit(16, 4),
                   "counter escaped");
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 1;
    runtime::Simulation sim(b.build(), opts,
                            "netlist.compiled");
    EXPECT_EQ(sim.runCrossChecked(100), isa::RunStatus::Failed);
    EXPECT_TRUE(sim.divergence().empty()) << sim.divergence();
    EXPECT_NE(sim.host().failureMessage().find("counter escaped"),
              std::string::npos);
}

TEST(Runtime, SimulationExposesCompileAndPerf)
{
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    runtime::Simulation sim(designs::buildMc(64), opts);
    EXPECT_GT(sim.compileResult().program.vcpl, 0u);
    sim.run(32);
    EXPECT_EQ(sim.vcycles(), 32u);
    EXPECT_GT(sim.effectiveRateKhz(), 0.0);
}
