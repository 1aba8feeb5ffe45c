/**
 * @file
 * One-file byte-exact regression tests from failures: the recorded-
 * stimulus replay format and its runner.
 *
 * A replay artifact is a small text file that captures everything
 * needed to reproduce an engine failure in a fresh process:
 *
 *   manticore-replay v1
 *   design builtin mm 256          # how to rebuild the netlist
 *   hash 1f2e3d4c5b6a7988          # engine::designHash (0.. = unknown)
 *   engine netlist.parallel        # engine that failed (informational)
 *   lanes 2
 *   note lane 1 cycle 40: ...      # freeform context lines
 *   poke 7 1 stop 1 1              # cycle lane input width hex-value
 *   run 64                         # cycles to advance
 *   expect 0 finished 64 9c0ffee...# lane status cycle probe-digest
 *   expect 1 failed 40 abad1dea...
 *   end
 *
 * Design identity is by *recipe* (a builtin benchmark name + driver
 * horizon, the open counter fixture, or a random-circuit seed) plus
 * the structural design hash, so a drifted design fails loudly
 * instead of silently replaying a different circuit.  Expectations
 * pin the terminal (status, cycle) of every lane and a digest over
 * all RTL probes, so a replay that reproduces the failure byte-exact
 * passes and anything else names what moved.
 *
 * Artifacts are written automatically by the CrossCheck /
 * EnsembleCrossCheck differential harnesses on divergence (attach a
 * ReplayRecorder) and by tools/fuzz_differential on its first
 * divergence; tools/replay_runner and tests/test_replay.cc re-execute
 * every artifact in tests/replay_corpus/ against all available
 * engines.  See src/runtime/README.md for the format grammar.
 */

#ifndef MANTICORE_RUNTIME_REPLAY_HH
#define MANTICORE_RUNTIME_REPLAY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "engine/registry.hh"
#include "netlist/netlist.hh"

namespace manticore::runtime {

/** One recorded input drive: before stepping past `cycle`, lane
 *  `lane`'s input `input` is driven with `value`. */
struct ReplayPoke
{
    uint64_t cycle = 0;
    unsigned lane = 0;
    std::string input;
    BitVector value;
};

/** Expected terminal state of one lane after the run. */
struct ReplayExpect
{
    unsigned lane = 0;
    engine::Status status = engine::Status::Running;
    uint64_t cycle = 0;
    uint64_t digest = 0; ///< probeDigest over all RTL signals
};

/** A parsed replay artifact (see the file-format comment above). */
struct ReplayTrace
{
    static constexpr const char *kMagic = "manticore-replay v1";

    /// Design recipe: "builtin" (arg = benchmark name, param = the
    /// driver's check_cycles), "openctr" (arg = counter width, param
    /// = finish limit), or "random" (arg = random-circuit seed;
    /// rebuilt through the caller's hook, see buildReplayDesign).
    std::string designKind;
    std::string designArg;
    uint64_t designParam = 0;
    /// engine::designHash of the netlist; 0 = unknown (check skipped).
    uint64_t designHash = 0;
    /// Registry name of the engine that failed (informational).
    std::string engine;
    unsigned lanes = 1;
    std::vector<std::string> notes;
    std::vector<ReplayPoke> pokes; ///< sorted by cycle on parse
    uint64_t runCycles = 0;
    std::vector<ReplayExpect> expectations;

    std::string serialize() const;
    /** Parse artifact text; malformed input is a user-facing
     *  fatal() naming the offending line. */
    static ReplayTrace parse(const std::string &text);
    static ReplayTrace load(const std::string &path);
    void writeFile(const std::string &path) const;
};

/** The probe table a digest runs over: every RTL register of the
 *  design, sorted by (unique) probe name, at its RTL width. */
struct ProbeSignal
{
    std::string name;
    unsigned width = 0;
};

std::vector<ProbeSignal> probeSignals(const netlist::Netlist &netlist);

/** FNV-1a digest over one lane's value of every signal in the table
 *  (values masked to the RTL width, so the chunk-padded ISA probes
 *  digest equal to the netlist engines'). */
uint64_t probeDigest(engine::Engine &engine, unsigned lane,
                     const std::vector<ProbeSignal> &signals);

/** Rebuilds "random"-kind designs from their seed (the generator
 *  lives in tests/random_circuit.hh, above this library — harnesses
 *  that record random designs pass their builder through). */
using RandomDesignBuilder =
    std::function<netlist::Netlist(uint64_t seed)>;

/** The open-input replay fixture: a `width`-bit counter with free
 *  1-bit inputs `stop` (freezes the count) and `fault` (fails the
 *  assertion that cycle); $finishes when the count reaches `limit`.
 *  Poking stop/fault per lane makes divergent per-lane terminations
 *  reproducible on-demand. */
netlist::Netlist buildOpenCtr(unsigned width, uint64_t limit);

/** Rebuild a trace's design from its recipe.  "random" requires
 *  `random_builder` (a loud fatal() otherwise); the recipe's design
 *  hash is re-checked against the rebuilt netlist when known. */
netlist::Netlist
buildReplayDesign(const ReplayTrace &trace,
                  const RandomDesignBuilder &random_builder = {});

/** Outcome of replaying one artifact on one engine. */
struct ReplayResult
{
    bool ran = false;        ///< false => skipped, see skipReason
    std::string skipReason;  ///< why the engine was skipped
    bool passed = false;     ///< every expectation reproduced
    std::string detail;      ///< first mismatch, human-readable
};

/** The options every differential subject is created with, by
 *  fuzz_differential and by replayOn alike, so an artifact replays in
 *  the configuration that recorded it: the parallel presets run
 *  pinned at two processes, so random circuits (which the cost model
 *  would mostly run as one process) still go through the
 *  rendezvous.  The other engines ignore both fields. */
engine::CreateOptions subjectOptions();

/** Re-execute a trace on one registry engine over the (already
 *  rebuilt) design, created with subjectOptions().  Engines that
 *  cannot run the artifact are SKIPPED, not fataled: unavailable
 *  engines (netlist.aot without a toolchain), multi-lane traces on
 *  engines without an ensemble mode, and poke-carrying traces on
 *  engines without free inputs (the ISA-level engines compile inputs
 *  away). */
ReplayResult replayOn(const ReplayTrace &trace,
                      const netlist::Netlist &netlist,
                      const std::string &engine_name);

/** Builds up a ReplayTrace during a differential run and writes it
 *  on failure.  The harness sets the design recipe and records its
 *  pokes as it drives them; the crosscheck (or the harness) fills
 *  the expectations from the golden engines and calls write(). */
class ReplayRecorder
{
  public:
    ReplayTrace trace;
    /// Digest table of the design under test (probeSignals()).
    std::vector<ProbeSignal> signals;
    /// Output directory; "" resolves to $MANTICORE_REPLAY_DIR, else
    /// "replay-artifacts" under the current directory.
    std::string dir;
    /// Artifact filename stem ("<stem>-<contenthash>.replay").
    std::string stem = "failure";

    /** Record one input drive (the harness calls this right where it
     *  drives the engine, so the artifact IS the stimulus). */
    void poke(uint64_t cycle, unsigned lane, const std::string &input,
              const BitVector &value);

    /** Append an expectation pinned to `golden`'s current state:
     *  status, per-lane cycle, and the probe digest. */
    void expectFrom(engine::Engine &golden, unsigned engine_lane,
                    unsigned artifact_lane);

    /** Serialize and write the artifact; returns its path. */
    std::string write() const;
};

} // namespace manticore::runtime

#endif // MANTICORE_RUNTIME_REPLAY_HH
