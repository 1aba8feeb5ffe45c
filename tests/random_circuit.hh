/**
 * @file
 * Randomized-but-always-valid netlist generator shared by the
 * differential property tests (test_compiled_evaluator.cc,
 * test_parallel_evaluator.cc): covers every OpKind, widths 1..200
 * biased around the 64-bit limb boundary, memories with writes,
 * asserts, displays and $finish.  replicate() copies a netlist so
 * that a level-ordered tape holds same-opcode runs at every level, and
 * cornerCircuit() pins the operand corners those runs must keep.
 */

#ifndef MANTICORE_TESTS_RANDOM_CIRCUIT_HH
#define MANTICORE_TESTS_RANDOM_CIRCUIT_HH

#include <map>
#include <string>
#include <vector>

#include "netlist/builder.hh"
#include "netlist/netlist.hh"
#include "support/rng.hh"

namespace manticore::testing {

inline BitVector
randomValue(Rng &rng, unsigned width)
{
    std::vector<uint64_t> limbs((width + 63) / 64);
    for (auto &l : limbs)
        l = rng.next();
    return BitVector::fromLimbs(width, limbs);
}

/** Grows a random but always-valid netlist over all OpKinds. */
class RandomCircuit
{
  public:
    static constexpr unsigned kMaxWidth = 200;

    explicit RandomCircuit(uint64_t seed) : _rng(seed), _netlist("rnd") {}

    netlist::Netlist
    build()
    {
        using namespace netlist;
        // Inputs, registers, memories first so the op soup can use them.
        unsigned num_inputs = 2 + _rng.below(3);
        for (unsigned i = 0; i < num_inputs; ++i) {
            Node n;
            n.kind = OpKind::Input;
            n.width = randomWidth();
            n.name = "in" + std::to_string(i);
            _inputWidths.push_back(n.width);
            record(_netlist.addNode(std::move(n)));
        }
        unsigned num_regs = 3 + _rng.below(4);
        for (unsigned r = 0; r < num_regs; ++r) {
            Register reg;
            reg.name = "r" + std::to_string(r);
            reg.width = randomWidth();
            reg.init = randomValue(_rng, reg.width);
            RegId id = _netlist.addRegister(std::move(reg));
            _regs.push_back(id);
            record(_netlist.reg(id).current);
        }
        unsigned num_mems = 1 + _rng.below(2);
        for (unsigned m = 0; m < num_mems; ++m) {
            Memory mem;
            mem.name = "m" + std::to_string(m);
            mem.width = randomWidth();
            mem.depth = 4 + static_cast<unsigned>(_rng.below(13));
            for (unsigned a = 0; a < mem.depth; ++a)
                mem.init.push_back(randomValue(_rng, mem.width));
            _mems.push_back(_netlist.addMemory(std::move(mem)));
        }

        unsigned num_ops = 40 + _rng.below(40);
        for (unsigned i = 0; i < num_ops; ++i)
            addRandomOp();

        for (RegId r : _regs)
            _netlist.connectNext(r, ofWidth(_netlist.reg(r).width));

        unsigned num_writes = 1 + _rng.below(3);
        for (unsigned i = 0; i < num_writes; ++i) {
            MemWrite w;
            w.mem = _mems[_rng.below(_mems.size())];
            w.addr = any();
            w.data = ofWidth(_netlist.memory(w.mem).width);
            w.enable = ofWidth(1);
            _netlist.addMemWrite(w);
        }

        unsigned num_displays = 1 + _rng.below(2);
        for (unsigned i = 0; i < num_displays; ++i) {
            Display d;
            d.enable = ofWidth(1);
            d.format = "a=%d b=%x";
            d.args = {any(), any()};
            _netlist.addDisplay(std::move(d));
        }

        if (_rng.chance(0.5)) {
            Assert a;
            a.enable = ofWidth(1);
            a.cond = ofWidth(1);
            a.message = "random assertion";
            _netlist.addAssert(std::move(a));
        }
        if (_rng.chance(0.5)) {
            Finish f;
            f.enable = ofWidth(1);
            _netlist.addFinish(f);
        }

        _netlist.validate();
        return std::move(_netlist);
    }

    const std::vector<unsigned> &inputWidths() const
    {
        return _inputWidths;
    }

  private:
    unsigned
    randomWidth()
    {
        // Bias towards the interesting boundaries around 64.
        switch (_rng.below(4)) {
          case 0: return 1 + static_cast<unsigned>(_rng.below(16));
          case 1: return 60 + static_cast<unsigned>(_rng.below(10));
          default:
            return 1 + static_cast<unsigned>(_rng.below(kMaxWidth));
        }
    }

    void
    record(netlist::NodeId id)
    {
        _pool.push_back(id);
        _byWidth[_netlist.node(id).width].push_back(id);
    }

    netlist::NodeId any() { return _pool[_rng.below(_pool.size())]; }

    /** A node of exactly width w (materialising a constant if the
     *  pool has none). */
    netlist::NodeId
    ofWidth(unsigned w)
    {
        using namespace netlist;
        auto it = _byWidth.find(w);
        if (it != _byWidth.end() && !it->second.empty() &&
            !_rng.chance(0.1))
            return it->second[_rng.below(it->second.size())];
        Node c;
        c.kind = OpKind::Const;
        c.width = w;
        c.value = randomValue(_rng, w);
        NodeId id = _netlist.addNode(std::move(c));
        record(id);
        return id;
    }

    void
    addRandomOp()
    {
        using namespace netlist;
        static const OpKind kinds[] = {
            OpKind::Const, OpKind::MemRead, OpKind::Add, OpKind::Sub,
            OpKind::Mul, OpKind::And, OpKind::Or, OpKind::Xor,
            OpKind::Not, OpKind::Shl, OpKind::Lshr, OpKind::Eq,
            OpKind::Ult, OpKind::Slt, OpKind::Mux, OpKind::Slice,
            OpKind::Concat, OpKind::ZExt, OpKind::SExt, OpKind::RedOr,
            OpKind::RedAnd, OpKind::RedXor,
        };
        OpKind kind = kinds[_rng.below(sizeof(kinds) / sizeof(kinds[0]))];
        Node n;
        n.kind = kind;
        switch (kind) {
          case OpKind::Const:
            n.width = randomWidth();
            n.value = randomValue(_rng, n.width);
            break;
          case OpKind::MemRead: {
            n.memId = _mems[_rng.below(_mems.size())];
            n.width = _netlist.memory(n.memId).width;
            n.operands = {any()};
            break;
          }
          case OpKind::Add:
          case OpKind::Sub:
          case OpKind::Mul:
          case OpKind::And:
          case OpKind::Or:
          case OpKind::Xor: {
            NodeId a = any();
            n.width = _netlist.node(a).width;
            n.operands = {a, ofWidth(n.width)};
            break;
          }
          case OpKind::Not: {
            NodeId a = any();
            n.width = _netlist.node(a).width;
            n.operands = {a};
            break;
          }
          case OpKind::Shl:
          case OpKind::Lshr: {
            NodeId a = any();
            n.width = _netlist.node(a).width;
            n.operands = {a, any()};
            break;
          }
          case OpKind::Eq:
          case OpKind::Ult:
          case OpKind::Slt: {
            NodeId a = any();
            n.width = 1;
            n.operands = {a, ofWidth(_netlist.node(a).width)};
            break;
          }
          case OpKind::Mux: {
            NodeId t = any();
            n.width = _netlist.node(t).width;
            n.operands = {ofWidth(1), t, ofWidth(n.width)};
            break;
          }
          case OpKind::Slice: {
            NodeId a = any();
            unsigned aw = _netlist.node(a).width;
            unsigned len = 1 + static_cast<unsigned>(_rng.below(aw));
            n.width = len;
            n.lo = static_cast<unsigned>(_rng.below(aw - len + 1));
            n.operands = {a};
            break;
          }
          case OpKind::Concat: {
            NodeId a = any();
            NodeId b = any();
            unsigned w =
                _netlist.node(a).width + _netlist.node(b).width;
            if (w > 250)
                return; // keep the soup bounded
            n.width = w;
            n.operands = {a, b};
            break;
          }
          case OpKind::ZExt:
          case OpKind::SExt: {
            NodeId a = any();
            unsigned aw = _netlist.node(a).width;
            n.width = aw + static_cast<unsigned>(_rng.below(66));
            if (n.width > 250)
                n.width = 250;
            n.operands = {a};
            break;
          }
          case OpKind::RedOr:
          case OpKind::RedAnd:
          case OpKind::RedXor:
            n.width = 1;
            n.operands = {any()};
            break;
          default:
            return;
        }
        record(_netlist.addNode(std::move(n)));
    }

    Rng _rng;
    netlist::Netlist _netlist;
    std::vector<netlist::NodeId> _pool;
    std::map<unsigned, std::vector<netlist::NodeId>> _byWidth;
    std::vector<netlist::RegId> _regs;
    std::vector<netlist::MemId> _mems;
    std::vector<unsigned> _inputWidths;
};

/** A netlist with the input widths its in<i> inputs take. */
struct TestCircuit
{
    netlist::Netlist netlist;
    std::vector<unsigned> inputWidths;
};

/** `copies` structurally identical copies of a netlist whose inputs
 *  are in0..in<n-1> (in id order), in one netlist: copy k gets inputs
 *  in<k*n>..in<k*n+n-1> and its own registers, memories, memory
 *  writes and side effects.  Every (level, opcode) group of the
 *  original appears `copies` times, so at copies >= 3 a level-ordered
 *  tape holds runs of every narrow opcode the original has, while
 *  each copy still sees its own stimulus. */
inline TestCircuit
replicate(const netlist::Netlist &nl,
          const std::vector<unsigned> &input_widths, unsigned copies)
{
    using namespace netlist;
    TestCircuit out{Netlist(nl.name()), {}};
    Netlist &dst = out.netlist;
    for (unsigned k = 0; k < copies; ++k) {
        const std::string tag = "_c" + std::to_string(k);
        std::vector<NodeId> map(nl.numNodes(), kInvalidNode);
        std::vector<MemId> mems;
        for (const Memory &m : nl.memories()) {
            Memory copy = m;
            copy.name += tag;
            mems.push_back(dst.addMemory(std::move(copy)));
        }
        std::vector<RegId> regs;
        for (const Register &r : nl.registers()) {
            Register copy;
            copy.name = r.name + tag;
            copy.width = r.width;
            copy.init = r.init;
            regs.push_back(dst.addRegister(std::move(copy)));
            map[r.current] = dst.reg(regs.back()).current;
        }
        unsigned input = 0;
        for (size_t i = 0; i < nl.numNodes(); ++i) {
            Node n = nl.node(static_cast<NodeId>(i));
            if (n.kind == OpKind::RegRead)
                continue;
            if (n.kind == OpKind::Input)
                n.name = "in" + std::to_string(k * input_widths.size() +
                                               input++);
            if (n.kind == OpKind::MemRead)
                n.memId = mems[n.memId];
            for (NodeId &op : n.operands)
                op = map[op];
            map[i] = dst.addNode(std::move(n));
        }
        for (size_t r = 0; r < regs.size(); ++r)
            dst.connectNext(regs[r], map[nl.registers()[r].next]);
        for (const MemWrite &w : nl.memWrites())
            dst.addMemWrite({mems[w.mem], map[w.addr], map[w.data],
                             map[w.enable]});
        for (const Display &d : nl.displays()) {
            Display copy = d;
            copy.enable = map[d.enable];
            for (NodeId &a : copy.args)
                a = map[a];
            dst.addDisplay(std::move(copy));
        }
        for (const Assert &a : nl.asserts())
            dst.addAssert({map[a.enable], map[a.cond], a.message + tag});
        for (const Finish &f : nl.finishes())
            dst.addFinish({map[f.enable]});
        out.inputWidths.insert(out.inputWidths.end(),
                               input_widths.begin(), input_widths.end());
    }
    dst.validate();
    return out;
}

/** The operand corners a narrow run must keep exact, each result held
 *  in a register: shift amounts below and at or above the width, amount
 *  operands wider than 64 bits that do and do not fit 64, SExt with
 *  aw == width (and widening), RedAnd masks at 3, 64 and 100 bits, and
 *  narrow and wide MemRead with a memory write. */
inline TestCircuit
cornerCircuit()
{
    using namespace netlist;
    CircuitBuilder b("corners");
    Signal v = b.input("in0", 40);   // narrow shift value
    Signal amt = b.input("in1", 7);  // 0..127: below and >= 40
    Signal wide = b.input("in2", 100);
    Signal sel = b.input("in3", 3);
    Signal amt_wide = amt.zext(100); // > 64 bits, fits uint64
    MemHandle narrow_mem = b.memory("nm", 16, 8);
    MemHandle wide_mem = b.memory("wm", 80, 5);
    std::vector<Signal> results = {
        v.shl(amt), v.lshr(amt),
        v.shl(amt_wide), v.lshr(amt_wide),
        v.shl(wide), v.lshr(wide), // > 64 bits, rarely fits
        wide.shl(amt), wide.lshr(amt_wide),
        b.makeNode(OpKind::SExt, 40, {v.id()}), // aw == width
        b.makeNode(OpKind::SExt, 3, {sel.id()}),
        v.sext(64), sel.sext(50),
        sel.reduceAnd(), sel.bit(0).sext(64).reduceAnd(),
        v.slice(0, 2).reduceAnd(), sel.bit(1).sext(100).reduceAnd(),
        narrow_mem.read(sel), wide_mem.read(sel),
        narrow_mem.read(v.slice(3, 3)),
    };
    narrow_mem.write(amt.slice(0, 3), v.slice(8, 16), sel.bit(2));
    wide_mem.write(sel, wide.slice(10, 80), amt.bit(0));
    for (size_t i = 0; i < results.size(); ++i) {
        RegHandle r = b.reg("k" + std::to_string(i), results[i].width());
        b.next(r, results[i]);
    }
    return {b.build(), {40, 7, 100, 3}};
}

} // namespace manticore::testing

#endif // MANTICORE_TESTS_RANDOM_CIRCUIT_HH
