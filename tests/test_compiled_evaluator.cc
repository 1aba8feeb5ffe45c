/**
 * @file
 * Differential tests for the compiled tape evaluator: randomized
 * netlists (tests/random_circuit.hh) covering every OpKind, widths
 * 1..200, memories, asserts, displays and $finish, run through both
 * the reference Evaluator and the compiled TapeEvaluator with identical
 * input stimulus, asserting identical register / memory / display /
 * status state every cycle.  Plus directed tests for the
 * commit-ordering corner cases the arena layout introduces (register
 * storage doubling as RegRead slots), and replicated circuits whose
 * level-ordered tapes run mostly through run heads.
 */

#include <gtest/gtest.h>

#include <vector>

#include "netlist/builder.hh"
#include "netlist/evaluator.hh"
#include "netlist/tape_evaluator.hh"
#include "random_circuit.hh"

using namespace manticore;
using netlist::Evaluator;
using netlist::MemId;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::OpKind;
using netlist::RegId;
using netlist::SimStatus;
using netlist::TapeEvaluator;
using manticore::testing::cornerCircuit;
using manticore::testing::RandomCircuit;
using manticore::testing::randomValue;
using manticore::testing::replicate;
using manticore::testing::TestCircuit;

namespace {

/** Step both evaluators in lockstep, checking full architectural
 *  state every cycle. */
void
runDifferential(Netlist nl, const std::vector<unsigned> &input_widths,
                uint64_t seed, unsigned cycles)
{
    Evaluator ref(nl);
    TapeEvaluator tape(nl);
    Rng drive(seed ^ 0xd1ffe7e57ull);

    for (unsigned c = 0; c < cycles; ++c) {
        for (size_t i = 0; i < input_widths.size(); ++i) {
            BitVector v = randomValue(drive, input_widths[i]);
            std::string name = "in" + std::to_string(i);
            ref.setInput(name, v);
            tape.setInput(name, v);
        }
        SimStatus a = ref.step();
        SimStatus b = tape.step();
        ASSERT_EQ(a, b) << "status diverged at cycle " << c;
        ASSERT_EQ(ref.cycle(), tape.cycle());
        ASSERT_EQ(ref.failureMessage(), tape.failureMessage());
        for (size_t r = 0; r < nl.numRegisters(); ++r) {
            ASSERT_EQ(ref.regValue(static_cast<RegId>(r)),
                      tape.regValue(static_cast<RegId>(r)))
                << "reg " << nl.reg(static_cast<RegId>(r)).name
                << " diverged at cycle " << c;
        }
        for (size_t m = 0; m < nl.numMemories(); ++m) {
            for (unsigned addr = 0;
                 addr < nl.memory(static_cast<MemId>(m)).depth; ++addr) {
                ASSERT_EQ(ref.memValue(static_cast<MemId>(m), addr),
                          tape.memValue(static_cast<MemId>(m), addr))
                    << "mem " << m << "[" << addr
                    << "] diverged at cycle " << c;
            }
        }
        ASSERT_EQ(ref.displayLog().size(), tape.displayLog().size())
            << "display count diverged at cycle " << c;
        if (a != SimStatus::Ok)
            break;
    }
    ASSERT_EQ(ref.displayLog(), tape.displayLog());
}

} // namespace

TEST(CompiledEvaluator, RandomizedDifferential)
{
    for (uint64_t seed = 1; seed <= 64; ++seed) {
        RandomCircuit gen(seed * 0x9e3779b9ull);
        Netlist nl = gen.build();
        SCOPED_TRACE("seed " + std::to_string(seed));
        runDifferential(std::move(nl), gen.inputWidths(), seed, 48);
    }
}

TEST(CompiledEvaluator, ReplicatedCircuitsMatchReference)
{
    // Three copies of every cone: each level of the level-ordered tape
    // holds a run of every narrow opcode it has, so most ops execute
    // inside a run head's loop rather than as singletons.
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        RandomCircuit gen(seed * 0x9e3779b9ull);
        TestCircuit rep = replicate(gen.build(), gen.inputWidths(), 3);
        SCOPED_TRACE("seed " + std::to_string(seed));
        runDifferential(std::move(rep.netlist), rep.inputWidths, seed, 48);
    }
    TestCircuit corners = cornerCircuit();
    TestCircuit rep = replicate(corners.netlist, corners.inputWidths, 3);
    runDifferential(std::move(rep.netlist), rep.inputWidths, 7, 200);
}

TEST(CompiledEvaluator, RunHeadsCutDispatches)
{
    TestCircuit corners = cornerCircuit();
    TestCircuit rep = replicate(corners.netlist, corners.inputWidths, 3);
    TapeEvaluator scalar(rep.netlist);
    EXPECT_LT(scalar.tapeDispatches(), scalar.tapeLength());
    // Most of its ops sit in runs of three or more.
    EXPECT_LE(scalar.tapeDispatches() * 2, scalar.tapeLength());

    // Ensembles keep one dispatch per op.
    netlist::EvalOptions options;
    options.lanes = 2;
    TapeEvaluator laned(rep.netlist, options);
    EXPECT_EQ(laned.tapeDispatches(), laned.tapeLength());
    EXPECT_EQ(laned.tapeLength(), scalar.tapeLength());
}

TEST(CompiledEvaluator, RegisterSwapUsesPreCommitValues)
{
    // a.next = b, b.next = a: the classic case where unified
    // register/RegRead storage must double-buffer the commit.
    netlist::CircuitBuilder b("swap");
    auto ra = b.reg("a", 64, 1);
    auto rb = b.reg("b", 64, 2);
    b.next(ra, rb.read());
    b.next(rb, ra.read());
    Netlist nl = b.build();

    TapeEvaluator tape(nl);
    tape.step();
    EXPECT_EQ(tape.regValue("a").toUint64(), 2u);
    EXPECT_EQ(tape.regValue("b").toUint64(), 1u);
    tape.step();
    EXPECT_EQ(tape.regValue("a").toUint64(), 1u);
    EXPECT_EQ(tape.regValue("b").toUint64(), 2u);
}

TEST(CompiledEvaluator, MemWriteSeesPreCommitRegisterData)
{
    // The memory write's data/addr come straight from a register's
    // RegRead node; the write must capture the OLD register value
    // even though the register also commits this cycle.
    netlist::CircuitBuilder b("memorder");
    auto counter = b.reg("counter", 8, 5);
    b.next(counter, counter.read() + b.lit(8, 1));
    auto mem = b.memory("m", 8, 16);
    mem.write(b.lit(8, 3), counter.read(), b.lit(1, 1));
    Netlist nl = b.build();

    Evaluator ref(nl);
    TapeEvaluator tape(nl);
    ref.step();
    tape.step();
    EXPECT_EQ(ref.memValue(0, 3).toUint64(), 5u);
    EXPECT_EQ(tape.memValue(0, 3).toUint64(), 5u);
    EXPECT_EQ(tape.regValue("counter").toUint64(), 6u);
}

TEST(CompiledEvaluator, SelfNextRegisterIsStable)
{
    netlist::CircuitBuilder b("hold");
    auto r = b.reg("r", 128, 0);
    b.next(r, r.read());
    Netlist nl = b.build();
    // Give it a wide nonzero init through the raw netlist interface.
    TapeEvaluator tape(nl);
    tape.step();
    tape.step();
    EXPECT_EQ(tape.regValue("r"), BitVector(128));
}

TEST(CompiledEvaluator, WideArithmeticMatchesBitVector)
{
    netlist::CircuitBuilder b("wide");
    auto acc = b.reg("acc", 192, 1);
    auto k = b.lit(BitVector::fromLimbs(
        192, {0x9e3779b97f4a7c15ull, 0xdeadbeefcafef00dull, 0x12345ull}));
    b.next(acc, acc.read() * k + k);
    Netlist nl = b.build();

    Evaluator ref(nl);
    TapeEvaluator tape(nl);
    for (int i = 0; i < 16; ++i) {
        ref.step();
        tape.step();
        ASSERT_EQ(ref.regValue(0), tape.regValue(0)) << "cycle " << i;
    }
}

TEST(CompiledEvaluator, FactoryBuildsBothModes)
{
    netlist::CircuitBuilder b("even_odd");
    auto counter = b.reg("counter", 16);
    b.next(counter, counter.read() + b.lit(16, 1));
    netlist::Signal is_even = !counter.read().bit(0);
    b.display(is_even, "%d is an even number", {counter.read()});
    b.display(!is_even, "%d is an odd number", {counter.read()});
    b.finish(counter.read() == b.lit(16, 20));
    Netlist nl = b.build();

    auto ref = std::make_unique<netlist::Evaluator>(nl);
    auto tape = std::make_unique<TapeEvaluator>(nl);
    EXPECT_EQ(ref->run(100), SimStatus::Finished);
    EXPECT_EQ(tape->run(100), SimStatus::Finished);
    EXPECT_EQ(ref->cycle(), tape->cycle());
    EXPECT_EQ(ref->displayLog(), tape->displayLog());
    EXPECT_EQ(tape->displayLog().size(), 21u);
    EXPECT_EQ(tape->displayLog()[20], "20 is an even number");
}
