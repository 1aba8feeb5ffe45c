#include "netlist/tape_evaluator.hh"

#include <algorithm>
#include <exception>
#include <unordered_map>

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
    // Workers always park at the compute rendezvous between steps;
    // bumping both generations with _shutdown set releases them from
    // either wait.  Only then can the compiled objects be unloaded.
    _shutdown.store(true, std::memory_order_relaxed);
    _computeGen.fetch_add(1, std::memory_order_release);
    _commitGen.fetch_add(1, std::memory_order_release);
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
    // after construction, each by exactly one process per cycle.
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

    // Per-process private regions: cone node slots, then staging for
    // RegRead-sourced commit operands.  Lowering happens in the same
    // sweep — node ids are topologically ordered and cones are
    // operand-closed, so every operand slot is resolvable by the time
    // it is needed.  `local` maps the current process's cone only.
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

        // Commit operands that live in the shared register file are
        // staged into the private region pre-barrier; everything else
        // (private slots, stable constants/inputs) is read directly.
        std::unordered_map<NodeId, uint32_t> staged;
        auto commitSlot = [&](NodeId id) -> uint32_t {
            const Node &n = nodes[id];
            if (n.kind != OpKind::RegRead)
                return resolve(id);
            auto it = staged.find(id);
            if (it != staged.end())
                return it->second;
            uint32_t slot = _arena.alloc(n.width);
            staged.emplace(id, slot);
            proc.stages.push_back({slot, _regSlot[n.regId],
                                   lo::nlimbs(n.width) * _lanes});
            return slot;
        };

        for (RegId r : src.registers) {
            const Register &reg = _netlist.reg(r);
            proc.regCommits.push_back({_regSlot[r], commitSlot(reg.next),
                                       lo::nlimbs(reg.width)});
        }
        for (uint32_t w : src.memWrites) {
            const MemWrite &mw = _netlist.memWrites()[w];
            proc.memCommits.push_back(
                {mw.mem, commitSlot(mw.addr), commitSlot(mw.data),
                 commitSlot(mw.enable),
                 lo::nlimbs(nodes[mw.addr].width)});
        }

        // Side effects resolve against the effects process's cone
        // (or shared slots); the master fires them per lane between
        // the two barriers.
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
TapeEvaluator::computeProc(size_t proc_index)
{
    // The executor (compiled object or interpreted tape) writes only
    // the process's private region; the stage copies are part of the
    // protocol and run for both.
    const Proc &proc = _procs[proc_index];
    uint64_t *A = _arena.data();
    if (proc.aotFn)
        proc.aotFn(A, _memTable.data());
    else
        tape::run(proc.tape, A, _mems, _padded);
    for (const StageCopy &s : proc.stages)
        lo::copy(A + s.dst, A + s.src, s.limbs);
}

inline void
TapeEvaluator::commitScalar(const Proc &proc)
{
    // Called only when _doCommit, which at one lane IS lane 0's commit
    // flag — no lane loops, no flag loads.
    uint64_t *A = _arena.data();
    for (const MemCommit &w : proc.memCommits) {
        if (A[w.enable]) {
            tape::MemState &m = _mems[w.mem];
            uint64_t addr = A[w.addr] % m.depth;
            lo::copy(&m.words[addr * m.wordLimbs], A + w.data,
                     m.wordLimbs);
        }
    }
    for (const RegCommit &rc : proc.regCommits)
        lo::copy(A + rc.dst, A + rc.src, rc.limbs);
}

void
TapeEvaluator::commitProc(const Proc &proc)
{
    // Memory writes never read shared register-file slots (those were
    // staged), so intra-process commit order is free; registers and
    // memories owned by other processes are untouched by design.
    // Frozen lanes (finished / assert-failed) have _laneCommit
    // cleared by the master and are skipped.
    const unsigned L = _lanes;
    if (L == 1)
        return commitScalar(proc);
    uint64_t *A = _arena.data();
    for (const MemCommit &w : proc.memCommits) {
        tape::MemState &m = _mems[w.mem];
        for (unsigned l = 0; l < L; ++l) {
            if (!_laneCommit[l] || !A[w.enable + l])
                continue;
            uint64_t addr =
                A[w.addr + static_cast<size_t>(l) * w.addrStride] %
                m.depth;
            lo::copy(m.word(addr, l),
                     A + w.data + static_cast<size_t>(l) * m.wordLimbs,
                     m.wordLimbs);
        }
    }
    if (_allCommit) {
        // Every lane commits: the src and dst blocks are lane-strided
        // with the same stride, one copy per register moves every
        // lane.
        for (const RegCommit &rc : proc.regCommits)
            lo::copy(A + rc.dst, A + rc.src, rc.limbs * L);
    } else {
        for (const RegCommit &rc : proc.regCommits)
            for (unsigned l = 0; l < L; ++l)
                if (_laneCommit[l])
                    lo::copy(A + rc.dst +
                                 static_cast<size_t>(l) * rc.limbs,
                             A + rc.src +
                                 static_cast<size_t>(l) * rc.limbs,
                             rc.limbs);
    }
}

/* Batch protocol (worker pool present).  A run()/step() call issues
 * ONE pool command: the master bumps _computeGen once and every
 * worker enters its batch loop.  Within the batch, each cycle is
 *
 *   worker: compute; ++_computeDone; wait _commitGen; commit if
 *           _doCommit (honouring the per-lane _laneCommit flags);
 *           read _batchMore; ++_commitDone; if more: wait
 *           _commitDone == everyone, roll into the next compute
 *   master: compute proc 0; wait _computeDone target; fire effects
 *           per lane; publish _laneCommit/_doCommit/_batchMore; bump
 *           _commitGen; commit proc 0; ++_commitDone; wait
 *           _commitDone target
 *
 * Barrier 2 (all commits visible before any next-cycle compute) is
 * the _commitDone counter itself: every participant — master
 * included — counts its commit, and a worker rolls over only once
 * the full cycle's count is in.  The batch thus pays one generation
 * signal per cycle (plus the counters) instead of two signals and
 * two counter resets, and the master never re-enters step().  The
 * done-counters are monotonic against per-thread targets, which is
 * what makes the reset-free roll-over safe: a worker's baseline read
 * at batch entry is stable because the master only bumps _computeGen
 * after the previous cycle's full commit count arrived.  _batchMore
 * and the _laneCommit flags are written by the master before the
 * _commitGen release bump and read by workers after its acquire,
 * strictly before the master's next write to them. */
void
TapeEvaluator::workerLoop(size_t proc_index)
{
    const uint64_t participants = _procs.size();
    uint64_t seen_compute = 0, seen_commit = 0;
    while (true) {
        seen_compute = waitAbove(_computeGen, seen_compute);
        if (_shutdown.load(std::memory_order_relaxed))
            return;
        uint64_t commit_target =
            _commitDone.load(std::memory_order_acquire);
        while (true) {
            computeProc(proc_index);
            _computeDone.fetch_add(1, std::memory_order_release);
            seen_commit = waitAbove(_commitGen, seen_commit);
            if (_shutdown.load(std::memory_order_relaxed))
                return;
            bool more = _batchMore;
            if (_doCommit)
                commitProc(_procs[proc_index]);
            _commitDone.fetch_add(1, std::memory_order_release);
            if (!more)
                break; // park at the next batch's compute rendezvous
            commit_target += participants;
            waitCount(_commitDone, commit_target);
        }
    }
}

void
TapeEvaluator::startBatch()
{
    // One pool command for the whole batch: workers enter their batch
    // loop and compute cycle 0; the master runs process 0 inline.
    _computeGen.fetch_add(1, std::memory_order_release);
}

void
TapeEvaluator::awaitCompute()
{
    _computeTarget += _pool.size();
    waitCount(_computeDone, _computeTarget);
}

void
TapeEvaluator::publishCommit(bool more)
{
    // Workers continue into the next cycle's compute iff the batch
    // goes on.
    _batchMore = more;
    _commitGen.fetch_add(1, std::memory_order_release);
}

void
TapeEvaluator::awaitCommit()
{
    _commitDone.fetch_add(1, std::memory_order_release);
    _commitTarget += _pool.size() + 1;
    waitCount(_commitDone, _commitTarget);
}

void
TapeEvaluator::recountActive()
{
    unsigned active = 0;
    for (unsigned l = 0; l < _lanes; ++l)
        if (_lane[l].status == SimStatus::Ok)
            ++active;
    _active = active;
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
    // Single-lane master loop: no per-lane flag vectors or loops (the
    // scalar commit is gated on _doCommit alone).  Must stay
    // behaviourally identical to runLaned at lanes=1 (the ensemble
    // tests pin both against the reference evaluator).
    LaneState &lane = _lane[0];
    const bool pool = !_pool.empty();
    if (pool)
        startBatch();
    for (uint64_t left = max_cycles;; --left) {
        computeProc(0);
        if (pool)
            awaitCompute();

        // Barrier 1 passed.  If firing throws (a throwing onDisplay
        // callback), the commit rendezvous must still complete or the
        // workers stay parked at it and the next step() deadlocks;
        // the cycle is then neither committed nor counted, so a
        // caller that catches can retry it.
        bool finished = false;
        std::exception_ptr thrown;
        try {
            _doCommit = _effects.fire(_arena.data(), 0, lane.cycle,
                                      lane.status, lane.failureMessage,
                                      lane.displayLog, onDisplay,
                                      finished);
        } catch (...) {
            thrown = std::current_exception();
            _doCommit = false;
        }
        if (pool)
            publishCommit(left > 1 && _doCommit && !finished && !thrown);
        if (_doCommit)
            commitScalar(_procs[0]);
        if (pool)
            awaitCommit();
        if (thrown)
            std::rethrow_exception(thrown);

        if (!_doCommit) {
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
        computeProc(0);
        if (pool)
            awaitCompute();

        // Barrier 1 passed: every combinational value is visible.
        // Fire side effects per active lane, in lane order and in
        // netlist order within a lane — a failed assert suppresses
        // that lane's displays, $finish and commit.  On a throwing
        // display sink the whole ensemble cycle aborts (every lane's
        // display log rolled back, nothing commits, retryable; an
        // external sink may see already-delivered lines again), but
        // the exception is held until the commit rendezvous
        // completed.
        const uint64_t *A = _arena.data();
        tape::Effects::FireResult fired;
        if (_active == _lanes && _effects.onlyFinishes()) {
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
        _doCommit = fired.committing != 0;
        _allCommit = fired.committing == _lanes;
        if (pool)
            publishCommit(more);
        if (_doCommit)
            commitProc(_procs[0]);
        if (pool)
            awaitCommit();
        if (fired.thrown) {
            recountActive();
            std::rethrow_exception(fired.thrown);
        }

        if (_allCommit && fired.finishing == 0) {
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
        if (_doCommit)
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
// any workers are parked on _computeGen: the shared arena, memory
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
