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
 * The arena (exec/arena.hh) holds two copies of one layout: a shared
 * source region (constants, inputs), a shared register file grouped
 * by owning process and cache-line aligned, and per-process private
 * regions holding each process's node slots.  One copy is current;
 * every Vcycle is
 *
 *   compute phase   every process runs its tape on the current copy,
 *                   reading its register file / inputs / constants /
 *                   memories and writing only its private region,
 *                   then commits the registers it owns, for every
 *                   lane live at cycle start, into the OTHER copy
 *                   (the cross-process "SENDs").
 *   rendezvous      the master (calling) thread fires side effects in
 *                   netlist order, decides which lanes commit,
 *                   applies every memory write, restores the other
 *                   copy's registers for a lane that did not commit,
 *                   flips the copies if any lane committed, and
 *                   releases the workers into the next Vcycle.
 *
 * Commits never overwrite a value another process still reads, so
 * there is no staging and no second barrier.  A lane that stops
 * (finishes or fails) gets equal registers in both copies, so later
 * flips cannot change what it shows.  Memory writes are the master's
 * because MemReads may be duplicated into any process: no owner may
 * write a memory another process is still reading.  Sources and
 * restored registers are written into both copies; accessors read
 * the current one.
 *
 * With more than one process, netlist/partition.hh splits the netlist
 * into balanced processes and a persistent worker pool runs processes
 * 1..N-1 while the master runs process 0; the rendezvous is one
 * spin-waited arrival counter plus one release generation.  With one
 * process (the single-process presets, a design that partitions into
 * one process, or a partition the cost model rejects) the engine
 * lowers the whole netlist directly,
 * without the partitioner, and every Vcycle runs on the caller with
 * no pool, atomics or barriers — the same master loop, minus the
 * rendezvous.
 *
 * The executor is per process: the interpreted tape (tape.hh), or,
 * with EvalOptions::aot, a dlopen'd straight-line cycle function
 * emitted from that process's tape (aot.hh), run on the current
 * copy's base.  Effects, commits and lane bookkeeping are shared by
 * both executors, so an executor swap cannot drift semantically.
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
     *  pool command: one wake-up per batch and one rendezvous per
     *  cycle (see the batch protocol notes above workerLoop).  Cycle-exact with a step() loop; an
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
    /** One arena copy's limbs (the slot layout); the engine stores
     *  two such copies. */
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

    struct RegCommit
    {
        uint32_t dst;   ///< owned register-file slot, in the other copy
        uint32_t src;   ///< next-value slot, in the current copy
        uint32_t limbs; ///< per lane (also the lane stride)
    };

    struct MemCommit
    {
        uint32_t mem;
        uint32_t addr, data, enable; ///< slots in the current copy
        uint32_t addrStride;         ///< addr operand's lane stride
    };

    /** One process, fully lowered, with its executor. */
    struct Proc
    {
        std::vector<tape::Instr> tape;
        std::vector<RegCommit> regCommits;
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

    /** One process's compute phase: run its executor on the current
     *  copy A, then commit its registers into the other copy N. */
    void runProc(size_t proc_index, uint64_t *A, uint64_t *N);
    /** Master, inside the rendezvous, on a cycle where some lane
     *  commits: apply every memory write of the committing lanes. */
    void writeMemories(const uint64_t *A);
    /** Master, inside the rendezvous, on a cycle where some live lane
     *  did not commit or stopped: restore and flip, then equalise
     *  the copies for every lane that stopped. */
    void settleLanes(bool flip);
    void copyLaneRegs(unsigned lane, const uint64_t *from, uint64_t *to);
    void workerLoop(size_t proc_index);
    /** The master loop, one per lane shape. */
    SimStatus runScalar(uint64_t max_cycles);
    SimStatus runLaned(uint64_t max_cycles);
    /** Master-side rendezvous steps, called only with a worker pool:
     *  start a batch, wait for every worker's arrival, release the
     *  workers (saying whether the batch goes on). */
    void startBatch();
    void awaitArrivals();
    void release(bool more);
    /** Recount active lanes and the live-lane flags. */
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
    std::vector<uint32_t> _sourceSlot; ///< node id -> slot (Const/Input)
    std::vector<uint32_t> _regSlot;    ///< reg id -> register-file slot
    std::vector<tape::MemState> _mems;
    std::vector<MemCommit> _memWrites; ///< netlist order per memory
    /// Per-memory word-array base pointers (stable after
    /// construction), passed to every compiled cycle function.
    std::vector<const uint64_t *> _memTable;
    std::vector<Proc> _procs;
    tape::Effects _effects;
    NetlistPartitionStats _stats;
    unsigned _numThreads = 1;
    unsigned _aotProcs = 0;
    unsigned _compilerRuns = 0;

    std::vector<std::thread> _pool;
    std::vector<uint8_t> _laneLive; ///< per-lane live at cycle start

    // One-rendezvous worker pool (pool present only).  The master
    // participates by running process 0 inline; workers run processes
    // 1..N-1.  All cross-thread data movement is ordered through the
    // release/acquire chains on these counters.  _batchGen starts a
    // batch (workers park on it between run()/step() calls); within a
    // batch each worker bumps _arrived once per cycle, counted
    // monotonically against a master-side target, and the master
    // bumps _cycleGen once per cycle to release them.  The release
    // line (with the flags the master publishes along with it), the
    // arrival counter and the master's per-cycle state sit on
    // separate cache lines, so a spinning worker is disturbed only by
    // the writes it waits for.
    alignas(64) std::atomic<uint64_t> _cycleGen{0};
    bool _batchMore = false; ///< more cycles in this batch
    bool _allLive = true;    ///< every lane live at cycle start
    std::atomic<uint64_t> _batchGen{0};
    std::atomic<bool> _shutdown{false};
    alignas(64) std::atomic<uint64_t> _arrived{0};

    // Master-only from here: the copies' flip, run state and targets.
    alignas(64) exec::Arena _arena;
    uint64_t _arrivalTarget = 0;
    // Per-lane run state; _cycle is the engine-level (max-lane) view.
    uint64_t _cycle = 0;
    unsigned _active; ///< lanes not yet finished/failed
    std::vector<LaneState> _lane;
    std::vector<uint8_t> _laneCommit; ///< this cycle's commit flags
    std::vector<uint8_t> _laneFinish; ///< this cycle's $finish flags
};

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_TAPE_EVALUATOR_HH
