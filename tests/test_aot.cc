/**
 * @file
 * AOT-evaluator tests: randomized differential against the serial
 * compiled evaluator (identical stimulus, full architectural state
 * compared every cycle), the object-cache protocol (second
 * construction loads the cached object without invoking the
 * compiler; a corrupted entry is detected, unlinked and rebuilt),
 * the graceful fallback to the interpreted tape when no toolchain
 * works, and the strict factory/registry path that refuses instead.
 * Labelled "aot" in CMake so both sanitized configs run it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/registry.hh"
#include "netlist/aot.hh"
#include "netlist/builder.hh"
#include "netlist/tape_evaluator.hh"
#include "random_circuit.hh"

using namespace manticore;
using netlist::EvalOptions;
using netlist::MemId;
using netlist::Netlist;
using netlist::RegId;
using netlist::SimStatus;
using netlist::TapeEvaluator;
using manticore::testing::RandomCircuit;
using manticore::testing::randomValue;

namespace {

bool
hostHasToolchain()
{
    return netlist::aotToolchain().ok;
}

/** Per-test cache directory under gtest's temp dir, so tests never
 *  see each other's (or a previous run's) objects — the path is
 *  stable across runs, so any leftover contents are wiped here. */
std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "manticore-aot-test-" + tag;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

EvalOptions
aotOptions(const std::string &cache_dir)
{
    EvalOptions options;
    options.aot = true;
    options.aotCacheDir = cache_dir;
    return options;
}

/** Small closed design with a register, a memory write and a wide
 *  accumulator — enough tape variety to make a cache entry worth
 *  checking. */
Netlist
cachedDesign()
{
    netlist::CircuitBuilder b("aot_cache");
    auto cyc = b.reg("cyc", 16);
    b.next(cyc, cyc.read() + b.lit(16, 1));
    auto acc = b.reg("acc", 100, 1);
    b.next(acc, acc.read() + cyc.read().zext(100));
    auto mem = b.memory("m", 16, 8);
    mem.write(cyc.read().slice(0, 3).zext(16), cyc.read(), b.lit(1, 1));
    return b.build();
}

/** Step `a` (the trusted interpreted tape) and `b` (the subject) in
 *  lockstep, asserting identical architectural state every cycle. */
void
runLockstep(const Netlist &nl, TapeEvaluator &a, TapeEvaluator &b,
            const std::vector<unsigned> &input_widths, uint64_t seed,
            unsigned cycles)
{
    Rng drive(seed ^ 0xa07a07a07ull);
    for (unsigned c = 0; c < cycles; ++c) {
        for (size_t i = 0; i < input_widths.size(); ++i) {
            BitVector v = randomValue(drive, input_widths[i]);
            std::string name = "in" + std::to_string(i);
            a.setInput(name, v);
            b.setInput(name, v);
        }
        SimStatus sa = a.step();
        SimStatus sb = b.step();
        ASSERT_EQ(sa, sb) << "status diverged at cycle " << c;
        ASSERT_EQ(a.failureMessage(), b.failureMessage());
        for (size_t r = 0; r < nl.numRegisters(); ++r)
            ASSERT_EQ(a.regValue(static_cast<RegId>(r)),
                      b.regValue(static_cast<RegId>(r)))
                << "reg " << nl.reg(static_cast<RegId>(r)).name
                << " diverged at cycle " << c;
        for (size_t m = 0; m < nl.numMemories(); ++m)
            for (unsigned addr = 0;
                 addr < nl.memory(static_cast<MemId>(m)).depth; ++addr)
                ASSERT_EQ(a.memValue(static_cast<MemId>(m), addr),
                          b.memValue(static_cast<MemId>(m), addr))
                    << "mem " << m << "[" << addr
                    << "] diverged at cycle " << c;
        if (sa != SimStatus::Ok)
            break;
    }
    ASSERT_EQ(a.displayLog(), b.displayLog());
}

} // namespace

TEST(AotEvaluator, RandomizedDifferentialAgainstTheInterpretedTape)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    EvalOptions options = aotOptions(freshCacheDir("diff"));
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        RandomCircuit gen(seed * 0x9e3779b9ull);
        Netlist nl = gen.build();
        SCOPED_TRACE("seed " + std::to_string(seed));
        TapeEvaluator tape(nl);
        TapeEvaluator aot(nl, options);
        ASSERT_TRUE(aot.usingAot()) << "fell back to the interpreter";
        runLockstep(nl, tape, aot, gen.inputWidths(), seed, 48);
    }
}

TEST(AotEvaluator, SecondConstructionHitsTheCache)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    EvalOptions options = aotOptions(freshCacheDir("hit"));
    Netlist nl = cachedDesign();

    TapeEvaluator cold(nl, options);
    ASSERT_TRUE(cold.usingAot());
    EXPECT_FALSE(cold.cacheHit());
    EXPECT_GE(cold.compilerInvocations(), 1u);

    TapeEvaluator warm(nl, options);
    ASSERT_TRUE(warm.usingAot());
    EXPECT_TRUE(warm.cacheHit());
    EXPECT_EQ(warm.compilerInvocations(), 0u);
    EXPECT_EQ(warm.cacheKey(), cold.cacheKey());
    EXPECT_EQ(warm.objectPath(), cold.objectPath());

    // The cached object still computes the right thing.
    TapeEvaluator tape(nl);
    runLockstep(nl, tape, warm, {}, 7, 32);
}

TEST(AotEvaluator, CorruptedCacheEntryIsRebuilt)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    EvalOptions options = aotOptions(freshCacheDir("corrupt"));
    Netlist nl = cachedDesign();

    std::string object_path;
    {
        TapeEvaluator cold(nl, options);
        ASSERT_TRUE(cold.usingAot());
        object_path = cold.objectPath();
    }
    // Truncate the cached object to garbage: dlopen (or the embedded
    // key check) must reject it and the evaluator must rebuild.
    {
        std::FILE *f = std::fopen(object_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not an ELF object", f);
        std::fclose(f);
    }
    TapeEvaluator rebuilt(nl, options);
    ASSERT_TRUE(rebuilt.usingAot());
    EXPECT_FALSE(rebuilt.cacheHit());
    EXPECT_GE(rebuilt.compilerInvocations(), 1u);

    TapeEvaluator tape(nl);
    runLockstep(nl, tape, rebuilt, {}, 11, 32);
}

TEST(AotEvaluator, MissingCompilerFallsBackToTheInterpretedTape)
{
    // Direct construction with an unusable compiler must degrade
    // gracefully: a warning, no compiler run, identical results.
    EvalOptions options = aotOptions(freshCacheDir("fallback"));
    options.aotCompiler = "/nonexistent/manticore-bogus-c++";
    Netlist nl = cachedDesign();

    TapeEvaluator fallback(nl, options);
    EXPECT_FALSE(fallback.usingAot());
    EXPECT_EQ(fallback.compilerInvocations(), 0u);
    EXPECT_FALSE(fallback.cacheHit());

    TapeEvaluator tape(nl);
    runLockstep(nl, tape, fallback, {}, 13, 32);
}

TEST(AotEvaluator, FactoryIsStrictAboutAMissingToolchain)
{
    // The registry is the "asked for AOT by name" path: no silent
    // fallback, a fatal naming the probed toolchain.
    Netlist nl = cachedDesign();
    engine::CreateOptions options;
    options.eval = aotOptions(freshCacheDir("strict"));
    options.eval.aotCompiler = "/nonexistent/manticore-bogus-c++";
    EXPECT_EXIT(engine::create("netlist.aot", nl, options),
                ::testing::ExitedWithCode(1),
                "netlist.aot needs a working host C\\+\\+ compiler");
}

TEST(AotEvaluator, EmittedSourceIsSelfDescribing)
{
    Netlist nl = cachedDesign();
    EvalOptions options = aotOptions(freshCacheDir("emit"));
    options.aotCompiler = "/nonexistent/manticore-bogus-c++";
    // Fallback: no compile needed.
    TapeEvaluator eval(nl, options);
    std::string src = eval.emitSource();
    EXPECT_NE(src.find("manticore_aot_cycle"), std::string::npos);
    EXPECT_NE(src.find("support/limbops.hh"), std::string::npos);
    // One statement per tape instruction, chunked: at least one chunk
    // function must exist.
    EXPECT_NE(src.find("cycle_chunk0"), std::string::npos);
}

TEST(AotEngine, RegistryReportsAvailabilityAndStats)
{
    const engine::EngineInfo *info = engine::find("netlist.aot");
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->netlistLevel);
    EXPECT_EQ(info->available, hostHasToolchain());
    EXPECT_FALSE(info->availabilityNote.empty());

    if (!hostHasToolchain())
        GTEST_SKIP() << info->availabilityNote;
    engine::CreateOptions copts;
    copts.eval.aotCacheDir = freshCacheDir("engine");
    auto eng = engine::create("netlist.aot", cachedDesign(), copts);
    EXPECT_STREQ(eng->name(), "netlist.aot");
    EXPECT_TRUE(eng->has(engine::cap::kAotCompiled));
    eng->step(16);
    bool saw_active = false;
    for (const engine::Stat &s : eng->stats())
        if (s.name == "aot_active") {
            saw_active = true;
            EXPECT_EQ(s.value, 1u);
        }
    EXPECT_TRUE(saw_active);
}
