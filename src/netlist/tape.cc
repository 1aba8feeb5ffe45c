#include "netlist/tape.hh"

#include <algorithm>

#include "support/limbops.hh"
#include "support/logging.hh"

namespace manticore::netlist::tape {

namespace lo = ::manticore::limbops;

std::vector<MemState>
buildMemStates(const Netlist &netlist, unsigned lanes)
{
    std::vector<MemState> mems;
    mems.reserve(netlist.numMemories());
    for (const Memory &m : netlist.memories()) {
        MemState ms;
        ms.width = m.width;
        ms.wordLimbs = lo::nlimbs(m.width);
        ms.lanes = lanes;
        ms.depth = m.depth;
        ms.words.assign(static_cast<size_t>(ms.depth) * lanes *
                            ms.wordLimbs,
                        0);
        for (unsigned a = 0; a < m.depth; ++a)
            lo::broadcast(ms.word(a, 0), m.init[a].limbs().data(),
                          ms.wordLimbs, lanes);
        mems.push_back(std::move(ms));
    }
    return mems;
}

Op
opcode(const Netlist &netlist, NodeId id, const std::vector<MemState> &mems)
{
    const Node &n = netlist.node(id);
    bool narrow = n.width <= 64; // result fits one limb
    bool narrow_a =              // operand 0 fits one limb
        n.operands.empty() || netlist.node(n.operands[0]).width <= 64;

    switch (n.kind) {
      case OpKind::Add: return narrow ? Op::NAdd : Op::WAdd;
      case OpKind::Sub: return narrow ? Op::NSub : Op::WSub;
      case OpKind::Mul: return narrow ? Op::NMul : Op::WMul;
      case OpKind::And: return narrow ? Op::NAnd : Op::WAnd;
      case OpKind::Or: return narrow ? Op::NOr : Op::WOr;
      case OpKind::Xor: return narrow ? Op::NXor : Op::WXor;
      case OpKind::Not: return narrow ? Op::NNot : Op::WNot;
      case OpKind::Shl: return narrow ? Op::NShl : Op::WShl;
      case OpKind::Lshr: return narrow ? Op::NLshr : Op::WLshr;
      case OpKind::Eq: return narrow_a ? Op::NEq : Op::WEq;
      case OpKind::Ult: return narrow_a ? Op::NUlt : Op::WUlt;
      case OpKind::Slt: return narrow_a ? Op::NSlt : Op::WSlt;
      case OpKind::Mux: return narrow ? Op::NMux : Op::WMux;
      case OpKind::Slice: return narrow_a ? Op::NSlice : Op::WSlice;
      case OpKind::Concat: return narrow ? Op::NConcat : Op::WConcat;
      case OpKind::ZExt: return narrow ? Op::NZExt : Op::WZExt;
      case OpKind::SExt: return narrow ? Op::NSExt : Op::WSExt;
      case OpKind::RedOr: return narrow_a ? Op::NRedOr : Op::WRedOr;
      case OpKind::RedAnd: return narrow_a ? Op::NRedAnd : Op::WRedAnd;
      case OpKind::RedXor: return narrow_a ? Op::NRedXor : Op::WRedXor;
      case OpKind::MemRead:
        return mems[n.memId].wordLimbs == 1 ? Op::NMemRead
                                            : Op::WMemRead;
      case OpKind::Const:
      case OpKind::Input:
      case OpKind::RegRead:
        break;
    }
    MANTICORE_FATAL("source node has no tape lowering");
}

Instr
lower(const Netlist &netlist, NodeId id, uint32_t dst, uint32_t a,
      uint32_t b, uint32_t c, const std::vector<MemState> &mems)
{
    const Node &n = netlist.node(id);
    Instr in;
    in.op = opcode(netlist, id, mems);
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.c = c;
    in.width = n.width;
    in.mask = lo::topMask(n.width);
    if (!n.operands.empty())
        in.aw = netlist.node(n.operands[0]).width;
    if (n.operands.size() > 1)
        in.bw = netlist.node(n.operands[1]).width;
    if (n.kind == OpKind::Slice)
        in.lo = n.lo;
    else if (n.kind == OpKind::MemRead)
        in.lo = n.memId;
    else if (n.kind == OpKind::RedAnd)
        in.mask = lo::topMask(in.aw); // operand mask
    return in;
}

void
markRuns(std::vector<Instr> &tape)
{
    constexpr size_t kMinRun = 3; // see tape.hh for the measurement
    for (size_t i = 0, n = tape.size(); i < n;) {
        const Op op = tape[i].op;
        size_t run = 1;
        while (i + run < n && run < 0xffff && tape[i + run].op == op)
            ++run;
        if (op >= Op::NAdd && op <= Op::NMemRead && run >= kMinRun) {
            tape[i].op = static_cast<Op>(static_cast<int>(op) -
                                         static_cast<int>(Op::NAdd) +
                                         static_cast<int>(Op::NAddRun));
            tape[i].run = static_cast<uint16_t>(run);
        }
        i += run;
    }
}

size_t
dispatches(const std::vector<Instr> &tape)
{
    size_t count = 0;
    for (size_t i = 0; i < tape.size();
         i += std::max<size_t>(tape[i].run, 1))
        ++count;
    return count;
}

BitVector
readSlot(const uint64_t *slot, unsigned width)
{
    std::vector<uint64_t> limbs(slot, slot + lo::nlimbs(width));
    return BitVector::fromLimbs(width, limbs);
}

BitVector
MemState::value(uint64_t addr, unsigned lane) const
{
    return readSlot(word(addr, lane), width);
}

Effects
Effects::compile(const Netlist &netlist,
                 const std::function<uint32_t(NodeId)> &slot)
{
    Effects e;
    for (const Assert &a : netlist.asserts())
        e.asserts.push_back({slot(a.enable), slot(a.cond), a.message});
    for (const Display &d : netlist.displays()) {
        EffDisplay ed;
        ed.enable = slot(d.enable);
        ed.format = d.format;
        for (NodeId arg : d.args) {
            ed.argSlots.push_back(slot(arg));
            ed.argWidths.push_back(netlist.node(arg).width);
        }
        e.displays.push_back(std::move(ed));
    }
    for (const Finish &f : netlist.finishes())
        e.finishes.push_back(slot(f.enable));
    return e;
}

bool
Effects::fire(const uint64_t *A, unsigned lane, uint64_t cycle,
              SimStatus &status, std::string &failure_message,
              std::vector<std::string> &log,
              const std::function<void(const std::string &)> &on_display,
              bool &finished) const
{
    // Enable/cond slots are 1-bit, so their lane stride is one limb;
    // display arguments stride by their own limb counts.
    for (const EffAssert &a : asserts) {
        if (A[a.enable + lane] && !A[a.cond + lane]) {
            status = SimStatus::AssertFailed;
            failure_message = "cycle " + std::to_string(cycle) +
                              ": assertion failed: " + a.message;
            return false;
        }
    }
    // If a display sink throws, roll the log back so the engine's own
    // transcript stays exact when the caller retries the cycle.  An
    // external on_display sink cannot be un-notified: lines delivered
    // before the throw are redelivered on retry (at-least-once).
    size_t mark = log.size();
    try {
        for (const EffDisplay &d : displays) {
            if (A[d.enable + lane]) {
                std::vector<BitVector> args;
                args.reserve(d.argSlots.size());
                for (size_t i = 0; i < d.argSlots.size(); ++i)
                    args.push_back(readSlot(
                        A + d.argSlots[i] +
                            static_cast<size_t>(lane) *
                                lo::nlimbs(d.argWidths[i]),
                        d.argWidths[i]));
                std::string line =
                    Evaluator::formatDisplay(d.format, args);
                log.push_back(line);
                if (on_display)
                    on_display(line);
            }
        }
    } catch (...) {
        log.resize(mark);
        throw;
    }
    for (uint32_t en : finishes)
        if (A[en + lane])
            finished = true;
    return true;
}

Effects::FireResult
Effects::fireLanes(
    const uint64_t *A, unsigned lanes, LaneState *lane,
    uint8_t *commit, uint8_t *finish,
    const std::function<void(const std::string &)> &on_display) const
{
    FireResult result;
    if (onlyFinishes()) {
        // Nothing can fail, throw or log: every active lane commits
        // and firing collapses to the $finish-enable checks.
        for (unsigned l = 0; l < lanes; ++l) {
            bool active = lane[l].status == SimStatus::Ok;
            bool fin = active && anyFinish(A, l);
            commit[l] = active;
            finish[l] = fin;
            result.committing += active;
            result.finishing += fin;
        }
        return result;
    }
    for (unsigned l = 0; l < lanes; ++l) {
        commit[l] = 0;
        finish[l] = 0;
        lane[l].logMark = lane[l].displayLog.size();
    }
    try {
        for (unsigned l = 0; l < lanes; ++l) {
            LaneState &ls = lane[l];
            if (ls.status != SimStatus::Ok)
                continue;
            bool fin = false;
            bool ok = fire(A, l, ls.cycle, ls.status, ls.failureMessage,
                           ls.displayLog, on_display, fin);
            commit[l] = ok;
            finish[l] = fin;
            result.committing += ok;
            result.finishing += fin;
        }
    } catch (...) {
        for (unsigned l = 0; l < lanes; ++l) {
            lane[l].displayLog.resize(lane[l].logMark);
            commit[l] = 0;
        }
        result.thrown = std::current_exception();
        result.committing = 0;
        result.finishing = 0;
    }
    return result;
}

namespace {

uint64_t
shiftAmountLane(const Instr &in, const uint64_t *A, unsigned lane,
                uint32_t bstride)
{
    // Mirrors the reference: amounts that do not fit 64 bits shift
    // everything out.
    const uint64_t *b = A + in.b + static_cast<size_t>(lane) * bstride;
    if (in.bw <= 64 || lo::fitsUint64(b, lo::nlimbs(in.bw)))
        return b[0];
    return in.width;
}

// Every narrow (single-limb) opcode and its body over `in`.  Each
// body is expanded in place, twice: as the singleton case and inside
// the run-head loop.  Wrapping the bodies in an inline function
// instead changed the register allocation of the laned instantiations
// and measured 0.82-0.96x of the in-place bodies on 2- and 8-lane
// ensembles of mm and noc.
#define MANTICORE_NARROW_OPS(X) \
    X(Add, lo::addN<kLanes>(A + in.dst, A + in.a, A + in.b, in.mask, L)) \
    X(Sub, lo::subN<kLanes>(A + in.dst, A + in.a, A + in.b, in.mask, L)) \
    X(Mul, lo::mulN<kLanes>(A + in.dst, A + in.a, A + in.b, in.mask, L)) \
    X(And, lo::andN<kLanes>(A + in.dst, A + in.a, A + in.b, L)) \
    X(Or, lo::orN<kLanes>(A + in.dst, A + in.a, A + in.b, L)) \
    X(Xor, lo::xorN<kLanes>(A + in.dst, A + in.a, A + in.b, L)) \
    X(Not, lo::notN<kLanes>(A + in.dst, A + in.a, in.mask, L)) \
    X(Shl, { \
        const uint32_t bs = lo::nlimbs(in.bw); \
        for (unsigned l = 0; l < L; ++l) { \
            uint64_t amt = shiftAmountLane(in, A, l, bs); \
            A[in.dst + l] = \
                amt >= in.width ? 0 : (A[in.a + l] << amt) & in.mask; \
        } \
    }) \
    X(Lshr, { \
        const uint32_t bs = lo::nlimbs(in.bw); \
        for (unsigned l = 0; l < L; ++l) { \
            uint64_t amt = shiftAmountLane(in, A, l, bs); \
            A[in.dst + l] = amt >= in.width ? 0 : A[in.a + l] >> amt; \
        } \
    }) \
    X(Eq, lo::eqN<kLanes>(A + in.dst, A + in.a, A + in.b, L)) \
    X(Ult, lo::ultN<kLanes>(A + in.dst, A + in.a, A + in.b, L)) \
    X(Slt, lo::sltN<kLanes>(A + in.dst, A + in.a, A + in.b, \
                            1ull << (in.aw - 1), L)) \
    X(Mux, lo::muxN<kLanes>(A + in.dst, A + in.a, A + in.b, A + in.c, L)) \
    X(Slice, lo::sliceN<kLanes>(A + in.dst, A + in.a, in.lo, in.mask, L)) \
    X(Concat, \
      lo::concatN<kLanes>(A + in.dst, A + in.a, A + in.b, in.bw, L)) \
    X(ZExt, lo::copyN<kLanes>(A + in.dst, A + in.a, L)) \
    X(SExt, { \
        if (in.aw < in.width) \
            lo::sextN<kLanes>(A + in.dst, A + in.a, in.aw, in.mask, L); \
        else \
            lo::copyN<kLanes>(A + in.dst, A + in.a, L); \
    }) \
    X(RedOr, lo::redOrN<kLanes>(A + in.dst, A + in.a, L)) \
    X(RedAnd, lo::redAndN<kLanes>(A + in.dst, A + in.a, in.mask, L)) \
    X(RedXor, lo::redXorN<kLanes>(A + in.dst, A + in.a, L)) \
    X(MemRead, { \
        const MemState &m = mems[in.lo]; \
        const uint32_t as = lo::nlimbs(in.aw); \
        for (unsigned l = 0; l < L; ++l) \
            A[in.dst + l] = \
                m.words[(A[in.a + l * as] % m.depth) * L + l]; \
    })

// One run per narrow opcode: the run head and its tail in one loop,
// compiled on its own so the loop's registers do not compete with
// the executor's big switch.
#define MANTICORE_RUN_LOOP(NAME, BODY) \
    __attribute__((noinline)) void run##NAME( \
        const Instr *ip, const Instr *const end, uint64_t *A, \
        const MemState *mems) \
    { \
        constexpr unsigned kLanes = 1; \
        constexpr unsigned L = 1; \
        for (; ip != end; ++ip) { \
            const Instr &in = *ip; \
            BODY; \
        } \
    }
MANTICORE_NARROW_OPS(MANTICORE_RUN_LOOP)
#undef MANTICORE_RUN_LOOP

// A narrow opcode's singleton case and its run-head case.  Only
// single-lane tapes carry run heads, so the laned instantiations
// compile no run calls.
#define MANTICORE_NARROW_CASES(NAME, BODY) \
    case Op::N##NAME: \
        BODY; \
        break; \
    case Op::N##NAME##Run: \
        if constexpr (kLanes != 1) \
            __builtin_unreachable(); \
        run##NAME(ip, ip + in.run, A, mems); \
        ip += in.run; \
        continue;

/** The executor, templated on the lane count: kLanes == 1 is the
 *  scalar instantiation (the lane loops and per-operand strides fold
 *  away); kLanes == 0 takes the width from `dyn_lanes`
 *  and advances every lane of the ensemble per decoded op.  Narrow
 *  ops stream the laned single-limb kernels from support/limbops.hh
 *  (unit stride — one op's N lane values are N consecutive limbs);
 *  wide ops loop the span kernels over the lanes with each operand's
 *  stride hoisted out of the loop.  Run heads (single-lane tapes
 *  only, see markRuns) pay one dispatch for their whole run. */
/** noinline: each instantiation keeps its own code so the compiler
 *  cannot cross-jump the two big switch bodies into shared tails,
 *  which would put extra jumps on the single-lane hot path. */
template <unsigned kLanes>
__attribute__((noinline)) void
runImpl(const Instr *instrs, size_t count, uint64_t *A,
        const MemState *mems, unsigned dyn_lanes)
{
    const unsigned L = kLanes != 0 ? kLanes : dyn_lanes;
    for (const Instr *ip = instrs, *const end = instrs + count;
         ip != end;) {
        const Instr &in = *ip;
        switch (in.op) {
          MANTICORE_NARROW_OPS(MANTICORE_NARROW_CASES)
          case Op::WAdd: {
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::add(A + in.dst + l * s, A + in.a + l * s,
                        A + in.b + l * s, in.width);
            break;
          }
          case Op::WSub: {
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::sub(A + in.dst + l * s, A + in.a + l * s,
                        A + in.b + l * s, in.width);
            break;
          }
          case Op::WMul: {
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::mul(A + in.dst + l * s, A + in.a + l * s,
                        A + in.b + l * s, in.width);
            break;
          }
          case Op::WAnd: {
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::bitAnd(A + in.dst + l * s, A + in.a + l * s,
                           A + in.b + l * s, in.width);
            break;
          }
          case Op::WOr: {
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::bitOr(A + in.dst + l * s, A + in.a + l * s,
                          A + in.b + l * s, in.width);
            break;
          }
          case Op::WXor: {
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::bitXor(A + in.dst + l * s, A + in.a + l * s,
                           A + in.b + l * s, in.width);
            break;
          }
          case Op::WNot: {
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::bitNot(A + in.dst + l * s, A + in.a + l * s,
                           in.width);
            break;
          }
          case Op::WShl: {
            const uint32_t s = lo::nlimbs(in.width);
            const uint32_t bs = lo::nlimbs(in.bw);
            for (unsigned l = 0; l < L; ++l)
                lo::shl(A + in.dst + l * s, A + in.a + l * s,
                        shiftAmountLane(in, A, l, bs), in.width);
            break;
          }
          case Op::WLshr: {
            const uint32_t s = lo::nlimbs(in.width);
            const uint32_t bs = lo::nlimbs(in.bw);
            for (unsigned l = 0; l < L; ++l)
                lo::lshr(A + in.dst + l * s, A + in.a + l * s,
                         shiftAmountLane(in, A, l, bs), in.width);
            break;
          }
          case Op::WEq: {
            const uint32_t s = lo::nlimbs(in.aw);
            for (unsigned l = 0; l < L; ++l)
                A[in.dst + l] =
                    lo::eq(A + in.a + l * s, A + in.b + l * s, in.aw);
            break;
          }
          case Op::WUlt: {
            const uint32_t s = lo::nlimbs(in.aw);
            for (unsigned l = 0; l < L; ++l)
                A[in.dst + l] =
                    lo::ult(A + in.a + l * s, A + in.b + l * s, in.aw);
            break;
          }
          case Op::WSlt: {
            const uint32_t s = lo::nlimbs(in.aw);
            for (unsigned l = 0; l < L; ++l)
                A[in.dst + l] =
                    lo::slt(A + in.a + l * s, A + in.b + l * s, in.aw);
            break;
          }
          case Op::WMux: {
            const uint32_t ss = lo::nlimbs(in.aw); // select stride
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l) {
                const uint64_t *src = A[in.a + l * ss]
                                          ? A + in.b + l * s
                                          : A + in.c + l * s;
                lo::copy(A + in.dst + l * s, src, s);
            }
            break;
          }
          case Op::WSlice: {
            const uint32_t as = lo::nlimbs(in.aw);
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::slice(A + in.dst + l * s, A + in.a + l * as, in.aw,
                          in.lo, in.width);
            break;
          }
          case Op::WConcat: {
            const uint32_t as = lo::nlimbs(in.aw);
            const uint32_t bs = lo::nlimbs(in.bw);
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::concat(A + in.dst + l * s, A + in.a + l * as,
                           A + in.b + l * bs, in.aw, in.bw);
            break;
          }
          case Op::WZExt: {
            const uint32_t as = lo::nlimbs(in.aw);
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::zext(A + in.dst + l * s, A + in.a + l * as,
                         in.width, in.aw);
            break;
          }
          case Op::WSExt: {
            const uint32_t as = lo::nlimbs(in.aw);
            const uint32_t s = lo::nlimbs(in.width);
            for (unsigned l = 0; l < L; ++l)
                lo::sext(A + in.dst + l * s, A + in.a + l * as,
                         in.width, in.aw);
            break;
          }
          case Op::WRedOr: {
            const uint32_t as = lo::nlimbs(in.aw);
            for (unsigned l = 0; l < L; ++l)
                A[in.dst + l] = lo::reduceOr(A + in.a + l * as, in.aw);
            break;
          }
          case Op::WRedAnd: {
            const uint32_t as = lo::nlimbs(in.aw);
            for (unsigned l = 0; l < L; ++l)
                A[in.dst + l] = lo::reduceAnd(A + in.a + l * as, in.aw);
            break;
          }
          case Op::WRedXor: {
            const uint32_t as = lo::nlimbs(in.aw);
            for (unsigned l = 0; l < L; ++l)
                A[in.dst + l] = lo::reduceXor(A + in.a + l * as, in.aw);
            break;
          }
          case Op::WMemRead: {
            const MemState &m = mems[in.lo];
            const uint32_t as = lo::nlimbs(in.aw);
            for (unsigned l = 0; l < L; ++l) {
                uint64_t addr = A[in.a + l * as] % m.depth;
                lo::copy(A + in.dst + l * m.wordLimbs,
                         m.word(addr, l), m.wordLimbs);
            }
            break;
          }
        }
        ++ip;
    }
}

#undef MANTICORE_NARROW_OPS
#undef MANTICORE_NARROW_CASES

} // namespace

void
runScalar(const Instr *instrs, size_t count, uint64_t *A,
          const MemState *mems)
{
    runImpl<1>(instrs, count, A, mems, 1);
}

void
runEnsemble(const Instr *instrs, size_t count, uint64_t *A,
            const MemState *mems, unsigned lanes)
{
    // Constant-width instantiations for the common power-of-two lane
    // counts: the lane loops unroll / vectorise with a known trip
    // count, which matters most on short tapes where the loop
    // control would otherwise rival the op itself.
    switch (lanes) {
      case 2: return runImpl<2>(instrs, count, A, mems, 2);
      case 4: return runImpl<4>(instrs, count, A, mems, 4);
      case 8: return runImpl<8>(instrs, count, A, mems, 8);
      case 16: return runImpl<16>(instrs, count, A, mems, 16);
      default: return runImpl<0>(instrs, count, A, mems, lanes);
    }
}

} // namespace manticore::netlist::tape
