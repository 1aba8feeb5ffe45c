#include "netlist/tape_evaluator.hh"

#include <algorithm>
#include <exception>

#include <dlfcn.h>

#include "exec/padding.hh"
#include "support/limbops.hh"
#include "support/logging.hh"

namespace manticore::netlist {

namespace lo = ::manticore::limbops;

namespace {

constexpr uint32_t kNoSlot = ~0u;

/** The single-process "partition": every combinational node in
 *  topological (id) order, every register, every memory write and the
 *  side effects — built directly, without the partitioner. */
NetlistProcess
wholeNetlist(const Netlist &netlist)
{
    NetlistProcess whole;
    for (size_t i = 0; i < netlist.numNodes(); ++i) {
        OpKind kind = netlist.node(static_cast<NodeId>(i)).kind;
        if (kind != OpKind::Const && kind != OpKind::Input &&
            kind != OpKind::RegRead)
            whole.nodes.push_back(static_cast<NodeId>(i));
    }
    for (size_t r = 0; r < netlist.numRegisters(); ++r)
        whole.registers.push_back(static_cast<RegId>(r));
    for (size_t w = 0; w < netlist.memWrites().size(); ++w)
        whole.memWrites.push_back(static_cast<uint32_t>(w));
    whole.effects = true;
    return whole;
}

} // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

TapeEvaluator::TapeEvaluator(Netlist netlist, const EvalOptions &options,
                             bool partitioned)
    : _netlist(std::move(netlist)), _partitioned(partitioned),
      _aot(options.aot), _lanes(options.lanes),
      _padded(exec::paddedLaneCount(options.lanes)), _arena(_padded)
{
    MANTICORE_ASSERT(_lanes >= 1, "ensemble needs at least one lane");
    _netlist.validate();
    if (_partitioned) {
        unsigned hw = std::thread::hardware_concurrency();
        _numThreads = options.numThreads != 0 ? options.numThreads
                                              : std::max(1u, hw);
    }
    _active = _lanes;
    _lane.resize(_lanes);
    _laneLive.assign(_lanes, 1);
    _laneCommit.assign(_lanes, 0);
    _laneFinish.assign(_lanes, 0);

    // One process needs no partitioner.  A partition is kept only if
    // the cost model says its straggler plus the rendezvous beats the
    // serial tape (or the caller pinned it); otherwise it is dropped
    // before lowering.  A sink-less design that partitions into none
    // still gets its (empty) single process.
    std::vector<NetlistProcess> processes;
    if (_numThreads > 1) {
        NetlistPartition part =
            partitionNetlist(_netlist, _numThreads, options.mergeAlgo);
        _stats = part.stats;
        if (options.pinProcesses || partitionPays(_stats, _padded))
            processes = std::move(part.processes);
    }
    if (processes.empty())
        processes.push_back(wholeNetlist(_netlist));
    compile(std::move(processes));

    _memTable.reserve(_mems.size());
    for (const tape::MemState &m : _mems)
        _memTable.push_back(m.words.data());
    if (_aot)
        buildAot(options);
    for (size_t p = 1; p < _procs.size(); ++p)
        _pool.emplace_back([this, p] { workerLoop(p); });
}

TapeEvaluator::~TapeEvaluator()
{
    // Workers always park at the batch generation between steps;
    // bumping both generations with _shutdown set releases them from
    // either wait.  Only then can the compiled objects be unloaded.
    _shutdown.store(true, std::memory_order_relaxed);
    _batchGen.fetch_add(1, std::memory_order_release);
    _cycleGen.fetch_add(1, std::memory_order_release);
    for (std::thread &t : _pool)
        t.join();
    for (Proc &p : _procs)
        if (p.aotHandle)
            dlclose(p.aotHandle);
}

void
TapeEvaluator::compile(std::vector<NetlistProcess> processes)
{
    _mems = tape::buildMemStates(_netlist, _padded);
    const auto &nodes = _netlist.nodes();

    // Shared source region: constants and inputs, written only at
    // build time / between steps.
    _sourceSlot.assign(nodes.size(), kNoSlot);
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].kind == OpKind::Const ||
            nodes[i].kind == OpKind::Input)
            _sourceSlot[i] = _arena.alloc(nodes[i].width);
    }

    // Shared register file, grouped by committing process and
    // cache-line aligned per group: the only shared slots written
    // after construction, each by exactly one process per cycle (into
    // the copy nobody reads that cycle).
    _regSlot.assign(_netlist.numRegisters(), kNoSlot);
    for (const NetlistProcess &proc : processes) {
        _arena.align();
        for (RegId r : proc.registers) {
            MANTICORE_ASSERT(_regSlot[r] == kNoSlot,
                             "register owned by two processes");
            _regSlot[r] = _arena.alloc(_netlist.reg(r).width);
        }
    }
    for (size_t r = 0; r < _netlist.numRegisters(); ++r)
        MANTICORE_ASSERT(_regSlot[r] != kNoSlot, "unowned register");

    // Per-process private regions: cone node slots.  Lowering happens
    // in the same sweep — node ids are topologically ordered and cones
    // are operand-closed, so every operand slot is resolvable by the
    // time it is needed.  `local` maps the current process's cone only.
    std::vector<uint32_t> local(nodes.size(), kNoSlot);
    auto resolve = [&](NodeId id) -> uint32_t {
        const Node &n = nodes[id];
        if (n.kind == OpKind::RegRead)
            return _regSlot[n.regId];
        if (n.kind == OpKind::Const || n.kind == OpKind::Input)
            return _sourceSlot[id];
        MANTICORE_ASSERT(local[id] != kNoSlot,
                         "operand escapes its process cone");
        return local[id];
    };

    bool effects_compiled = false;
    _procs.resize(processes.size());
    for (size_t p = 0; p < processes.size(); ++p) {
        const NetlistProcess &src = processes[p];
        Proc &proc = _procs[p];
        _arena.align();

        for (NodeId id : src.nodes)
            local[id] = _arena.alloc(nodes[id].width);

        proc.tape.reserve(src.nodes.size());
        for (NodeId id : src.nodes) {
            const Node &n = nodes[id];
            uint32_t a = n.operands.size() > 0 ? resolve(n.operands[0]) : 0;
            uint32_t b = n.operands.size() > 1 ? resolve(n.operands[1]) : 0;
            uint32_t c = n.operands.size() > 2 ? resolve(n.operands[2]) : 0;
            proc.tape.push_back(
                tape::lower(_netlist, id, local[id], a, b, c, _mems));
        }

        // Commits read the current copy and write the other, so every
        // operand (private slot, register file, constant, input) is
        // read where it lies.  Memory writes are collected for the
        // master, keeping each memory's writes in program order.
        for (RegId r : src.registers) {
            const Register &reg = _netlist.reg(r);
            proc.regCommits.push_back({_regSlot[r], resolve(reg.next),
                                       lo::nlimbs(reg.width)});
        }
        for (uint32_t w : src.memWrites) {
            const MemWrite &mw = _netlist.memWrites()[w];
            _memWrites.push_back({mw.mem, resolve(mw.addr),
                                  resolve(mw.data), resolve(mw.enable),
                                  lo::nlimbs(nodes[mw.addr].width)});
        }

        // Side effects resolve against the effects process's cone
        // (or shared slots); the master fires them per lane inside
        // the rendezvous.
        if (src.effects) {
            _effects = tape::Effects::compile(_netlist, resolve);
            effects_compiled = true;
        }
        for (NodeId id : src.nodes)
            local[id] = kNoSlot;
    }
    MANTICORE_ASSERT(effects_compiled || (_netlist.asserts().empty() &&
                                          _netlist.displays().empty() &&
                                          _netlist.finishes().empty()),
                     "effects cone unassigned");

    _arena.seal();

    for (size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].kind == OpKind::Const)
            _arena.broadcast(_sourceSlot[i], nodes[i].value);
    for (size_t r = 0; r < _netlist.numRegisters(); ++r)
        _arena.broadcast(_regSlot[r],
                         _netlist.reg(static_cast<RegId>(r)).init);
}

// ---------------------------------------------------------------------------
// The Vcycle
// ---------------------------------------------------------------------------

inline void
TapeEvaluator::runProc(size_t proc_index, uint64_t *A, uint64_t *N)
{
    // The executor (compiled object or interpreted tape) writes only
    // the process's private region of the current copy.  Every lane
    // live at cycle start then commits into the other copy before the
    // master knows whether its asserts hold: nothing reads the other
    // copy before the flip, and settleLanes restores a lane that turns
    // out not to commit.  Frozen lanes are skipped, so their registers
    // stay equal in both copies.
    const Proc &proc = _procs[proc_index];
    if (proc.aotFn)
        proc.aotFn(A, _memTable.data());
    else
        tape::run(proc.tape, A, _mems, _padded);
    const unsigned L = _lanes;
    if (_allLive) {
        // The src and dst blocks are lane-strided with the same
        // stride: one copy per register moves every lane.
        for (const RegCommit &rc : proc.regCommits)
            lo::copy(N + rc.dst, A + rc.src, rc.limbs * L);
        return;
    }
    for (const RegCommit &rc : proc.regCommits)
        for (unsigned l = 0; l < L; ++l)
            if (_laneLive[l])
                lo::copy(N + rc.dst + static_cast<size_t>(l) * rc.limbs,
                         A + rc.src + static_cast<size_t>(l) * rc.limbs,
                         rc.limbs);
}

void
TapeEvaluator::writeMemories(const uint64_t *A)
{
    // Each memory's writes are in program order; at one lane the
    // caller's "some lane commits" is lane 0's commit flag.
    const unsigned L = _lanes;
    for (const MemCommit &w : _memWrites) {
        tape::MemState &m = _mems[w.mem];
        for (unsigned l = 0; l < L; ++l) {
            if ((L > 1 && !_laneCommit[l]) || !A[w.enable + l])
                continue;
            uint64_t addr =
                A[w.addr + static_cast<size_t>(l) * w.addrStride] %
                m.depth;
            lo::copy(m.word(addr, l),
                     A + w.data + static_cast<size_t>(l) * m.wordLimbs,
                     m.wordLimbs);
        }
    }
}

void
TapeEvaluator::copyLaneRegs(unsigned lane, const uint64_t *from,
                            uint64_t *to)
{
    for (const Proc &proc : _procs)
        for (const RegCommit &rc : proc.regCommits) {
            size_t at = rc.dst + static_cast<size_t>(lane) * rc.limbs;
            lo::copy(to + at, from + at, rc.limbs);
        }
}

void
TapeEvaluator::settleLanes(bool flip)
{
    // Every lane live at cycle start has committed into the other
    // copy.  One that did not commit gets the current copy's registers
    // back there if the copies flip, or if it stopped (failed) — a
    // lane stalled by a throwing display sink stays live and is
    // recommitted next cycle.  One that finished committed: after the
    // flip its new registers go back into the old copy.
    for (unsigned l = 0; l < _lanes; ++l)
        if (_laneLive[l] && !_laneCommit[l] &&
            (flip || _lane[l].status != SimStatus::Ok))
            copyLaneRegs(l, _arena.data(), _arena.other());
    if (flip)
        _arena.flip();
    unsigned live = 0;
    for (unsigned l = 0; l < _lanes; ++l) {
        const bool finished = _laneCommit[l] && _laneFinish[l];
        if (_laneLive[l] && finished)
            copyLaneRegs(l, _arena.data(), _arena.other());
        _laneLive[l] = _lane[l].status == SimStatus::Ok && !finished;
        live += _laneLive[l];
    }
    _allLive = live == _lanes;
}

/* Batch protocol (worker pool present).  A run()/step() call issues
 * ONE pool command: the master bumps _batchGen once and every worker
 * enters its batch loop.  Within the batch, each cycle is
 *
 *   worker: compute and commit on the copies; ++_arrived; wait
 *           _cycleGen; if _batchMore: roll into the next cycle
 *   master: compute and commit proc 0; wait _arrived target; fire
 *           effects, write memories, settle lanes, flip; publish
 *           _batchMore; bump _cycleGen
 *
 * That is the one rendezvous: an arrival counter and a release.  A
 * worker's next-cycle compute reads only the new current copy and the
 * memories, both final once the master released it, and its commits
 * go into the other copy, which nobody reads that cycle.  _arrived is
 * monotonic against a master-side target, so no per-cycle reset is
 * needed.  _batchMore, _laneLive and _allLive are written by the
 * master before the _cycleGen release bump (or between calls, before
 * the _batchGen bump) and read by workers after its acquire, strictly
 * before the master's next write to them, which waits for every
 * worker's next arrival; the arena's copy offsets are read only at
 * batch entry. */
void
TapeEvaluator::workerLoop(size_t proc_index)
{
    uint64_t seen_batch = 0, seen_cycle = 0;
    while (true) {
        seen_batch = waitAbove(_batchGen, seen_batch);
        if (_shutdown.load(std::memory_order_relaxed))
            return;
        // A cycle released with _batchMore committed, so the copies
        // flipped: within a batch the worker tracks them itself and
        // never reads the master's arena state.
        uint64_t *A = _arena.data();
        uint64_t *N = _arena.other();
        do {
            runProc(proc_index, A, N);
            _arrived.fetch_add(1, std::memory_order_release);
            seen_cycle = waitAbove(_cycleGen, seen_cycle);
            if (_shutdown.load(std::memory_order_relaxed))
                return;
            std::swap(A, N);
        } while (_batchMore); // else park until the next batch
    }
}

void
TapeEvaluator::startBatch()
{
    // One pool command for the whole batch: workers enter their batch
    // loop and compute cycle 0; the master runs process 0 inline.
    _batchGen.fetch_add(1, std::memory_order_release);
}

void
TapeEvaluator::awaitArrivals()
{
    _arrivalTarget += _pool.size();
    waitCount(_arrived, _arrivalTarget);
}

void
TapeEvaluator::release(bool more)
{
    _batchMore = more;
    _cycleGen.fetch_add(1, std::memory_order_release);
}

void
TapeEvaluator::recountActive()
{
    unsigned active = 0;
    for (unsigned l = 0; l < _lanes; ++l) {
        _laneLive[l] = _lane[l].status == SimStatus::Ok;
        active += _laneLive[l];
    }
    _active = active;
    _allLive = active == _lanes;
}

SimStatus
TapeEvaluator::step()
{
    return TapeEvaluator::run(1);
}

SimStatus
TapeEvaluator::run(uint64_t max_cycles)
{
    if (_active == 0 || max_cycles == 0)
        return _lane[0].status;
    return _lanes == 1 ? runScalar(max_cycles) : runLaned(max_cycles);
}

SimStatus
TapeEvaluator::runScalar(uint64_t max_cycles)
{
    // Single-lane master loop: no per-lane flag loops on the common
    // cycle.  Must stay behaviourally identical to runLaned at lanes=1
    // (the ensemble tests pin both against the reference evaluator).
    LaneState &lane = _lane[0];
    const bool pool = !_pool.empty();
    if (pool)
        startBatch();
    for (uint64_t left = max_cycles;; --left) {
        runProc(0, _arena.data(), _arena.other());
        if (pool)
            awaitArrivals();

        // Inside the rendezvous.  If firing throws (a throwing
        // onDisplay callback), the workers must still be released or
        // the next step() deadlocks; the cycle then neither commits
        // nor counts and the copies do not flip, so a caller that
        // catches can retry it.
        bool commit = false, finished = false;
        std::exception_ptr thrown;
        try {
            commit = _effects.fire(_arena.data(), 0, lane.cycle,
                                   lane.status, lane.failureMessage,
                                   lane.displayLog, onDisplay, finished);
        } catch (...) {
            thrown = std::current_exception();
        }
        if (commit)
            writeMemories(_arena.data());
        if (commit && !finished) {
            _arena.flip();
        } else {
            _laneCommit[0] = commit;
            _laneFinish[0] = finished;
            settleLanes(commit);
        }
        if (pool)
            release(left > 1 && commit && !finished);
        if (thrown)
            std::rethrow_exception(thrown);

        if (!commit) {
            _active = 0; // assertion failed: no commit, no cycle
            return lane.status;
        }
        ++lane.cycle;
        ++_cycle;
        if (finished) {
            lane.status = SimStatus::Finished;
            _active = 0;
            return lane.status;
        }
        if (left == 1)
            return lane.status;
    }
}

SimStatus
TapeEvaluator::runLaned(uint64_t max_cycles)
{
    const bool pool = !_pool.empty();
    if (pool)
        startBatch();
    for (uint64_t left = max_cycles;; --left) {
        runProc(0, _arena.data(), _arena.other());
        if (pool)
            awaitArrivals();

        // Inside the rendezvous: every combinational value is in the
        // current copy.  Fire side effects per active lane, in lane
        // order and in netlist order within a lane — a failed assert
        // suppresses that lane's displays, $finish and commit.  On a
        // throwing display sink the whole ensemble cycle aborts (every
        // lane's display log rolled back, nothing commits, retryable;
        // an external sink may see already-delivered lines again), but
        // the exception is held until the workers are released.
        const uint64_t *A = _arena.data();
        tape::Effects::FireResult fired;
        if (_allLive && _effects.onlyFinishes()) {
            // Fused fast path: nothing can fail, throw or log and no
            // lane is frozen, so every lane commits and firing is just
            // the $finish-enable checks.  On overhead-bound designs the
            // per-cycle bookkeeping rivals the compute.
            uint8_t *commit = _laneCommit.data();
            uint8_t *finish = _laneFinish.data();
            unsigned finishing = 0;
            for (unsigned l = 0; l < _lanes; ++l) {
                bool fin = _effects.anyFinish(A, l);
                commit[l] = 1;
                finish[l] = fin;
                finishing += fin;
            }
            fired.committing = _lanes;
            fired.finishing = finishing;
        } else {
            fired = _effects.fireLanes(A, _lanes, _lane.data(),
                                       _laneCommit.data(),
                                       _laneFinish.data(), onDisplay);
        }
        const unsigned next_active = fired.committing - fired.finishing;
        const bool more = left > 1 && next_active > 0 && !fired.thrown;
        const bool flip = fired.committing != 0;
        const bool all_commit = fired.committing == _lanes;
        if (flip)
            writeMemories(A);
        if (fired.committing == _active && fired.finishing == 0)
            _arena.flip(); // the common cycle: no lane stops
        else
            settleLanes(flip);
        if (pool)
            release(more);
        if (fired.thrown) {
            recountActive();
            std::rethrow_exception(fired.thrown);
        }

        if (all_commit && fired.finishing == 0) {
            // The common cycle: every lane advances, none finishes.
            for (LaneState &ls : _lane)
                ++ls.cycle;
        } else {
            for (unsigned l = 0; l < _lanes; ++l) {
                if (!_laneCommit[l])
                    continue;
                ++_lane[l].cycle;
                if (_laneFinish[l])
                    _lane[l].status = SimStatus::Finished;
            }
        }
        if (flip)
            ++_cycle;
        _active = next_active;
        if (!more)
            return _lane[0].status;
    }
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

void
TapeEvaluator::setInput(const std::string &name, const BitVector &value)
{
    driveInput(resolveInput(_netlist, name, value), value);
}

void
TapeEvaluator::driveInput(NodeId input, const BitVector &value)
{
    MANTICORE_ASSERT(input < _netlist.numNodes() &&
                         _netlist.node(input).kind == OpKind::Input &&
                         _netlist.node(input).width == value.width(),
                     "bad driveInput target");
    _arena.broadcast(_sourceSlot[input], value);
}

void
TapeEvaluator::driveInputLane(unsigned lane, NodeId input,
                              const BitVector &value)
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    MANTICORE_ASSERT(input < _netlist.numNodes() &&
                         _netlist.node(input).kind == OpKind::Input &&
                         _netlist.node(input).width == value.width(),
                     "bad driveInput target");
    _arena.write(_sourceSlot[input], lane, value);
}

SimStatus
TapeEvaluator::laneStatus(unsigned lane) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    return _lane[lane].status;
}

uint64_t
TapeEvaluator::laneCycle(unsigned lane) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    return _lane[lane].cycle;
}

const std::string &
TapeEvaluator::laneFailureMessage(unsigned lane) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    return _lane[lane].failureMessage;
}

const std::vector<std::string> &
TapeEvaluator::laneDisplayLog(unsigned lane) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    return _lane[lane].displayLog;
}

BitVector
TapeEvaluator::regValue(RegId id) const
{
    return regValueLane(0, id);
}

BitVector
TapeEvaluator::regValueLane(unsigned lane, RegId id) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    MANTICORE_ASSERT(id < _netlist.numRegisters(), "bad register id");
    return _arena.read(_regSlot[id], _netlist.reg(id).width, lane);
}

BitVector
TapeEvaluator::regValue(const std::string &name) const
{
    return regValue(resolveRegister(_netlist, name));
}

BitVector
TapeEvaluator::memValue(MemId id, uint64_t addr) const
{
    return memValueLane(0, id, addr);
}

BitVector
TapeEvaluator::memValueLane(unsigned lane, MemId id, uint64_t addr) const
{
    MANTICORE_ASSERT(id < _mems.size() && addr < _mems[id].depth &&
                         lane < _lanes,
                     "memValue out of range");
    return _mems[id].value(addr, lane);
}

const char *
TapeEvaluator::presetName() const
{
    if (_partitioned)
        return _aot ? "netlist.parallel.aot" : "netlist.parallel";
    return _aot ? "netlist.aot" : "netlist.compiled";
}

size_t
TapeEvaluator::tapeLength() const
{
    size_t n = 0;
    for (const Proc &p : _procs)
        n += p.tape.size();
    return n;
}

const std::string &
TapeEvaluator::cacheKey(size_t proc_index) const
{
    MANTICORE_ASSERT(proc_index < _procs.size(), "process ", proc_index,
                     " out of range");
    return _procs[proc_index].aotKey;
}

const std::string &
TapeEvaluator::objectPath(size_t proc_index) const
{
    MANTICORE_ASSERT(proc_index < _procs.size(), "process ", proc_index,
                     " out of range");
    return _procs[proc_index].aotObject;
}

// ---- checkpoint/restore hooks (see EvaluatorBase::saveLaneState) ----
// All called from the master thread between step()/run() calls, when
// any workers are parked on _batchGen: the arena's copies, memory
// images and lane state are master-owned at that point.

BitVector
TapeEvaluator::inputValueLane(unsigned lane, NodeId input) const
{
    return _arena.read(_sourceSlot[input], _netlist.node(input).width,
                       lane);
}

void
TapeEvaluator::restoreReg(unsigned lane, RegId id, const BitVector &value)
{
    _arena.write(_regSlot[id], lane, value);
}

void
TapeEvaluator::restoreMemWord(unsigned lane, MemId id, uint64_t addr,
                              const BitVector &value)
{
    tape::MemState &ms = _mems[id];
    uint64_t *dst = ms.word(addr, lane);
    const std::vector<uint64_t> &limbs = value.limbs();
    for (unsigned i = 0; i < ms.wordLimbs; ++i)
        dst[i] = i < limbs.size() ? limbs[i] : 0;
}

void
TapeEvaluator::restoreLaneMeta(unsigned lane, uint64_t cycle,
                               SimStatus status, std::string failure,
                               std::vector<std::string> log)
{
    LaneState &ls = _lane[lane];
    ls.cycle = cycle;
    ls.status = status;
    ls.failureMessage = std::move(failure);
    ls.displayLog = std::move(log);
    ls.logMark = ls.displayLog.size();
}

void
TapeEvaluator::snapshotRestored()
{
    recountActive();
    std::fill(_laneCommit.begin(), _laneCommit.end(), 0);
    std::fill(_laneFinish.begin(), _laneFinish.end(), 0);
    uint64_t cycle = 0;
    for (const LaneState &ls : _lane)
        cycle = std::max(cycle, ls.cycle);
    _cycle = cycle;
}

} // namespace manticore::netlist
