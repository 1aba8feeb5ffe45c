/**
 * @file
 * The compiled netlist engine: the netlist lowered once to flat op
 * tapes over a preallocated limb arena, evaluated with the paper's
 * static bulk-synchronous Vcycle (§6.1, carried to host threads).
 * One class serves every compiled registry name; each name is a
 * preset of two orthogonal knobs:
 *
 *   | registry name        | processes                 | executor |
 *   |----------------------|---------------------------|----------|
 *   | netlist.compiled     | 1                         | tape     |
 *   | netlist.parallel     | cost model: 1 or up to nT | tape     |
 *   | netlist.aot          | 1                         | AOT      |
 *   | netlist.parallel.aot | cost model: 1 or up to nT | AOT      |
 *
 * The parallel presets partition into at most nT = numThreads
 * processes and keep the partition only when its straggler plus one
 * rendezvous costs less than the whole netlist as one process
 * (netlist::partitionPays, arithmetic on the partitioner's stats — no
 * timing, so the same netlist, numThreads, mergeAlgo and lanes always
 * pick the same count).  Otherwise they build the single-process
 * layout.  EvalOptions::pinProcesses keeps the partition regardless.
 *
 * The arena (exec/arena.hh) is split into a shared source region
 * (constants, inputs), a shared register file grouped by owning
 * process and cache-line aligned, and per-process private regions
 * holding each process's node slots plus staged copies of the
 * register-file operands its commits read.  Every Vcycle is
 *
 *   compute phase   every process runs its tape, reading the shared
 *                   register file / inputs / constants / memories and
 *                   writing only its private region, then stages its
 *                   RegRead-sourced commit operands.
 *   barrier 1       the master (calling) thread fires side effects
 *                   in netlist order and decides which lanes commit.
 *   commit phase    each process commits the registers and memory
 *                   writes it owns (the cross-process "SENDs").
 *   barrier 2       the Vcycle is complete.
 *
 * With more than one process, netlist/partition.hh splits the netlist
 * into balanced processes and a persistent worker pool runs processes
 * 1..N-1 while the master runs process 0; the two barriers are
 * spin-waited atomic counters.  With one
 * process (the single-process presets, a design that partitions into
 * one process, or a partition the cost model rejects) the engine
 * lowers the whole netlist directly,
 * without the partitioner, and every Vcycle runs on the caller with
 * no pool, atomics or barriers — the same master loop, minus the
 * rendezvous.
 *
 * The executor is per process: the interpreted tape (tape.hh), or,
 * with EvalOptions::aot, a dlopen'd straight-line cycle function
 * emitted from that process's tape (aot.hh).  Effects, stage copies,
 * commits and lane bookkeeping are shared by both executors, so an
 * executor swap cannot drift semantically.
 *
 * With EvalOptions::lanes == N the arena holds an N-lane ensemble —
 * N decoupled simulations advanced by the same Vcycle, each with its
 * own stimulus, status, cycle count, failure message and display
 * transcript; a lane that finishes or fails an assertion is frozen
 * while the others keep running.  The engine is cycle-exact with the
 * reference Evaluator per lane and deterministic across thread
 * counts and executors.
 */

#ifndef MANTICORE_NETLIST_TAPE_EVALUATOR_HH
#define MANTICORE_NETLIST_TAPE_EVALUATOR_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "exec/arena.hh"
#include "netlist/evaluator.hh"
#include "netlist/netlist.hh"
#include "netlist/partition.hh"
#include "netlist/tape.hh"

namespace manticore::netlist {

class TapeEvaluator : public EvaluatorBase
{
  public:
    /** Keeps its own copy of the netlist (cold data only).  Without
     *  `partitioned` it runs one process; with it, it partitions into
     *  at most options.numThreads processes (0 = hardware
     *  concurrency) and keeps the partition if the cost model or
     *  options.pinProcesses says so.  options.aot selects the AOT
     *  executor.  Direct construction degrades gracefully when the
     *  AOT toolchain fails (see aot.hh); engine::create is strict. */
    explicit TapeEvaluator(Netlist netlist, const EvalOptions &options = {},
                           bool partitioned = false);
    ~TapeEvaluator() override;

    TapeEvaluator(const TapeEvaluator &) = delete;
    TapeEvaluator &operator=(const TapeEvaluator &) = delete;

    void setInput(const std::string &name, const BitVector &value) override;
    void driveInput(NodeId input, const BitVector &value) override;
    SimStatus step() override;
    /** Batched stepping.  With a worker pool the whole batch is ONE
     *  pool command: one wake-up rendezvous per batch and one
     *  generation signal per cycle (see the batch protocol notes
     *  above workerLoop).  Cycle-exact with a step() loop; an
     *  ensemble batch runs until every lane is terminal or the batch
     *  ends. */
    SimStatus run(uint64_t max_cycles) override;

    /** Completed cycles of the most-advanced lane. */
    uint64_t cycle() const override { return _cycle; }
    SimStatus status() const override { return _lane[0].status; }
    const std::string &failureMessage() const override
    {
        return _lane[0].failureMessage;
    }

    BitVector regValue(RegId id) const override;
    BitVector regValue(const std::string &name) const override;
    BitVector memValue(MemId id, uint64_t addr) const override;

    // Ensemble views (lane 0 == the scalar API).
    unsigned lanes() const override { return _lanes; }
    void driveInputLane(unsigned lane, NodeId input,
                        const BitVector &value) override;
    SimStatus laneStatus(unsigned lane) const override;
    uint64_t laneCycle(unsigned lane) const override;
    const std::string &laneFailureMessage(unsigned lane) const override;
    const std::vector<std::string> &
    laneDisplayLog(unsigned lane) const override;
    BitVector regValueLane(unsigned lane, RegId id) const override;
    BitVector memValueLane(unsigned lane, MemId id,
                           uint64_t addr) const override;

    const std::vector<std::string> &displayLog() const override
    {
        return _lane[0].displayLog;
    }

    bool snapshotSupported() const override { return true; }
    /** Recount active lanes and recompute the engine-level cycle.
     *  Safe from the master thread: workers are parked between
     *  step()/run() calls. */
    void snapshotRestored() override;

    /** The registry name of this engine's preset. */
    const char *presetName() const;
    /** Built as a partition-parallel preset (netlist.parallel*). */
    bool partitioned() const { return _partitioned; }
    /** Built with the AOT executor requested (netlist.*aot). */
    bool aotRequested() const { return _aot; }

    /** Introspection for tests and benches. */
    size_t numProcesses() const { return _procs.size(); }
    /** Resolved partition-count bound (1 on the single-process
     *  presets), whether or not the cost model kept the partition. */
    unsigned numThreads() const { return _numThreads; }
    /** Threads this evaluator OWNS: spawned pool workers, one per
     *  process beyond the first (the master runs process 0 inline).
     *  Zero whenever the design runs as one process, i.e. every
     *  cycle executes on the calling thread — the mode the
     *  multi-tenant service relies on (src/service/scheduler.hh). */
    size_t ownedThreads() const { return _pool.size(); }
    /** The partitioner's statistics for the layout it proposed,
     *  kept or not (numProcesses() is what runs); all zero when
     *  numThreads() is 1, which skips the partitioner. */
    const NetlistPartitionStats &partitionStats() const { return _stats; }
    size_t tapeLength() const; ///< total instructions across processes
    size_t arenaLimbs() const { return _arena.limbs(); }

    // AOT executor state (all false / zero / empty on the tape
    // executor or after a fallback).
    /** True when EVERY process dispatches its compiled object. */
    bool usingAot() const
    {
        return !_procs.empty() && _aotProcs == _procs.size();
    }
    /** Processes with a compiled cycle function installed. */
    unsigned aotPartitions() const { return _aotProcs; }
    /** Compiler invocations this construction performed: 0 on a
     *  full cache hit or fallback.  A lone object compiles one
     *  invocation per ≤1024-statement chunk TU plus the link (one
     *  combined invocation for a one-chunk tape); per-partition
     *  objects compile one invocation each. */
    unsigned compilerInvocations() const { return _compilerRuns; }
    /** True when every object was loaded from the on-disk cache
     *  without invoking the compiler. */
    bool cacheHit() const { return usingAot() && _compilerRuns == 0; }
    /** Cache key (16 hex digits) of one process's object. */
    const std::string &cacheKey(size_t proc_index = 0) const;
    /** Path of one process's cached object ("" on fallback). */
    const std::string &objectPath(size_t proc_index = 0) const;
    /** The generated C++ for one process's tape (without the trailing
     *  key definition), at this evaluator's padded lane width. */
    std::string emitSource(size_t proc_index = 0) const;

  protected:
    const Netlist &snapshotNetlist() const override { return _netlist; }
    BitVector inputValueLane(unsigned lane, NodeId input) const override;
    void restoreReg(unsigned lane, RegId id,
                    const BitVector &value) override;
    void restoreMemWord(unsigned lane, MemId id, uint64_t addr,
                        const BitVector &value) override;
    void restoreLaneMeta(unsigned lane, uint64_t cycle, SimStatus status,
                         std::string failure,
                         std::vector<std::string> log) override;

  private:
    using CycleFn = void (*)(uint64_t *, const uint64_t *const *);

    /** Pre-barrier copy of a shared (RegRead) commit operand into the
     *  process's private staging, so the commit phase never reads a
     *  slot another commit may be overwriting.  Both blocks are
     *  lane-strided with the same stride, so one copy of `limbs`
     *  (pre-multiplied: per-lane limb count x lanes) moves every
     *  lane. */
    struct StageCopy
    {
        uint32_t dst, src, limbs;
    };

    struct RegCommit
    {
        uint32_t dst;   ///< shared register-file slot (owned)
        uint32_t src;   ///< private, staged, or stable shared slot
        uint32_t limbs; ///< per lane (also the lane stride)
    };

    struct MemCommit
    {
        uint32_t mem;
        uint32_t addr, data, enable; ///< private/staged/stable slots
        uint32_t addrStride;         ///< addr operand's lane stride
    };

    /** One process, fully lowered, with its executor. */
    struct Proc
    {
        std::vector<tape::Instr> tape;
        std::vector<StageCopy> stages;
        std::vector<RegCommit> regCommits;
        std::vector<MemCommit> memCommits;
        CycleFn aotFn = nullptr; ///< null: the interpreted tape
        void *aotHandle = nullptr;
        std::string aotKey, aotObject;
    };

    void compile(std::vector<NetlistProcess> processes);
    /** Emit, key, cache, compile, load and fall back per object —
     *  the AOT executor's one build routine (aot.cc). */
    void buildAot(const EvalOptions &options);
    /** dlopen one process's object, verify its embedded key, install
     *  its entry point (aot.cc). */
    bool loadAot(size_t proc_index, const std::string &path);

    void computeProc(size_t proc_index);
    void commitProc(const Proc &proc);
    void commitScalar(const Proc &proc); ///< commitProc at one lane
    void workerLoop(size_t proc_index);
    /** The master loop, one per lane shape. */
    SimStatus runScalar(uint64_t max_cycles);
    SimStatus runLaned(uint64_t max_cycles);
    /** Master-side rendezvous steps, called only with a worker pool:
     *  start a batch, barrier 1, publish the commit decision (and
     *  whether the batch goes on), barrier 2. */
    void startBatch();
    void awaitCompute();
    void publishCommit(bool more);
    void awaitCommit();
    void recountActive();

    // Rendezvous waits: spin with periodic yields.  Inline: they sit
    // on the per-cycle rendezvous hot path.
    static uint64_t
    waitAbove(const std::atomic<uint64_t> &gen, uint64_t last)
    {
        // Spin-then-yield keeps oversubscribed (or single-core)
        // hosts making progress, as in baseline's worker pool.
        uint64_t v;
        unsigned spins = 0;
        while ((v = gen.load(std::memory_order_acquire)) == last) {
            if (++spins > 256) {
                std::this_thread::yield();
                spins = 0;
            }
        }
        return v;
    }

    static void
    waitCount(const std::atomic<uint64_t> &counter, uint64_t target)
    {
        unsigned spins = 0;
        while (counter.load(std::memory_order_acquire) < target) {
            if (++spins > 256) {
                std::this_thread::yield();
                spins = 0;
            }
        }
    }

    Netlist _netlist; ///< cold copy for name/width lookups only
    bool _partitioned;
    bool _aot;

    // Requested vs padded ensemble width: the arena, memory images
    // and tape execution run _padded lanes (see exec/padding.hh);
    // effects, commits, stats and snapshots see only _lanes, so the
    // padded lanes stay frozen at init and invisible.
    unsigned _lanes;
    unsigned _padded;
    exec::Arena _arena;
    std::vector<uint32_t> _sourceSlot; ///< node id -> slot (Const/Input)
    std::vector<uint32_t> _regSlot;    ///< reg id -> register-file slot
    std::vector<tape::MemState> _mems;
    /// Per-memory word-array base pointers (stable after
    /// construction), passed to every compiled cycle function.
    std::vector<const uint64_t *> _memTable;
    std::vector<Proc> _procs;
    tape::Effects _effects;
    NetlistPartitionStats _stats;
    unsigned _numThreads = 1;
    unsigned _aotProcs = 0;
    unsigned _compilerRuns = 0;

    // Two-barrier worker-pool rendezvous (pool present only).  The
    // master participates by running process 0 inline; workers run
    // processes 1..N-1.  All cross-thread data movement is ordered
    // through the release/acquire chains on these counters.
    // _computeGen starts a batch (workers park on it between
    // run()/step() calls); within a batch only _commitGen advances per
    // cycle, and the done-counters count monotonically against
    // master-side targets so no per-cycle reset is needed.
    std::atomic<uint64_t> _computeGen{0};
    std::atomic<uint64_t> _commitGen{0};
    std::atomic<uint64_t> _computeDone{0};
    std::atomic<uint64_t> _commitDone{0};
    std::atomic<bool> _shutdown{false};
    bool _doCommit = false;  ///< any lane commits (master->workers,
                             ///< ordered by _commitGen)
    bool _allCommit = false; ///< every lane commits (fast path)
    bool _batchMore = false; ///< more cycles in this batch
    std::vector<uint8_t> _laneCommit; ///< per-lane commit flags (same
                                      ///< ordering as _doCommit)
    uint64_t _computeTarget = 0; ///< master-only done-counter targets
    uint64_t _commitTarget = 0;
    std::vector<std::thread> _pool;

    // Per-lane run state; _cycle is the engine-level (max-lane) view.
    uint64_t _cycle = 0;
    unsigned _active; ///< lanes not yet finished/failed
    std::vector<LaneState> _lane;
    std::vector<uint8_t> _laneFinish; ///< this cycle's $finish flags
};

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_TAPE_EVALUATOR_HH
