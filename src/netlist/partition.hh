/**
 * @file
 * Netlist-level partitioning for the parallel compiled evaluator —
 * the §6.1 split/merge pipeline of compiler/partition.{hh,cc} adapted
 * to operate on netlist node cones instead of lowered instructions.
 *
 * Splitting mirrors the paper's constraints at netlist granularity:
 *
 *  - one seed (maximal process) per register, holding the backward
 *    combinational cone of its next-value — node duplication is
 *    allowed, so cones are independent and no anchored-union fixpoint
 *    is needed;
 *  - all writes to the same memory stay together (commit ordering of
 *    same-address writes must match the netlist's program order);
 *    asynchronous MemReads are free and may be duplicated, because
 *    memory words are read-only during the compute phase;
 *  - all side effects (asserts / displays / $finish) stay together —
 *    the analogue of the paper's single privileged process — so the
 *    master thread can fire them in deterministic netlist order.
 *
 * Cross-partition dataflow is therefore restricted to end-of-Vcycle
 * register commits (the evaluator's shared register file), exactly
 * the SEND-at-barrier structure of the paper; `estimatedSends` counts
 * those (owner, foreign-reader) register words.
 *
 * Merging provides the same two strategies as the ISA-level
 * partitioner: the communication-aware balanced heuristic (B) and the
 * communication-oblivious LPT baseline (L) of §7.8.1 / Fig. 9.
 */

#ifndef MANTICORE_NETLIST_PARTITION_HH
#define MANTICORE_NETLIST_PARTITION_HH

#include <cstdint>
#include <vector>

#include "netlist/netlist.hh"
#include "support/mergealgo.hh"

namespace manticore::netlist {

struct NetlistPartitionStats
{
    /// Split-graph size before merging (the netlist analogue of
    /// Table 8's |V| and |E|).
    size_t splitProcesses = 0;
    size_t splitEdges = 0;
    /// After merging.
    size_t mergedProcesses = 0;
    /// Register-file words written by an owner and read by another
    /// process (the evaluator's analogue of Table 4's SENDs).
    size_t estimatedSends = 0;
    /// Estimated cost (weighted nodes + sends) of the straggler.
    size_t estimatedMaxCost = 0;
    /// Sum of per-process costs (the serial work the partition would
    /// re-execute; estimatedMaxCost/totalCost bounds the speedup).
    size_t totalCost = 0;
    /// Node instances beyond the netlist's own count (duplication).
    size_t duplicatedNodes = 0;
    /// Weighted nodes of the whole netlist run as one process: the
    /// single-process layout's cost, with no sends and no rendezvous.
    size_t serialCost = 0;
};

/** What a partition pays per Vcycle beyond its straggler, in the cost
 *  units above (limbs per node, plus sends), at the widest pool the
 *  host runs.  bench_parallel_evaluator measures two candidates over
 *  the serial tape's time per cost unit (BENCH_parallel_evaluator.json,
 *  4-vCPU Xeon, one-rendezvous Vcycle):
 *   - the empty-tape row (processes with empty tapes, so a Vcycle is
 *     all rendezvous): 0.54 us at P=4 over 2.56 ns per unit is 210
 *     units (P=2: 0.50 us, 194 units; the two-barrier Vcycle it
 *     replaced measured 1.37 us, 409 units);
 *   - the residual of real designs at P=4 (measured cycle minus
 *     straggler): median 403 units.
 *  The empty-tape figure alone would partition bc (Balanced) and noc
 *  and rv32r (LPT), which measure 0.66-0.80x of serial at P=4; every
 *  value in [380, 443) keeps each measured pick (jpeg and vta at 1;
 *  noc, mm, mc, rv32r and cgra at 4 under Balanced), so the constant
 *  stays at 400, the residual's median. */
constexpr size_t kRendezvousCost = 400;

/** The cost model behind the parallel presets: keep a partition only
 *  when its straggler plus one rendezvous beats running the whole
 *  netlist as one process.  Compute terms scale with the (padded)
 *  lane count; the rendezvous is paid once per Vcycle. */
inline bool
partitionPays(const NetlistPartitionStats &stats, unsigned lanes)
{
    return stats.mergedProcesses > 1 &&
           stats.estimatedMaxCost * lanes + kRendezvousCost <
               stats.serialCost * lanes;
}

/** One final process of the merged partition. */
struct NetlistProcess
{
    /// Combinational nodes to evaluate, ascending id (node ids are
    /// topologically ordered, so this is also execution order).
    /// Source nodes (Const/Input/RegRead) never appear.
    std::vector<NodeId> nodes;
    /// Registers whose commit this process owns.
    std::vector<RegId> registers;
    /// Indices into Netlist::memWrites() this process applies, in
    /// program order.  All writes to one memory land in one process.
    std::vector<uint32_t> memWrites;
    /// True for the (single) process holding the side-effect cone.
    bool effects = false;
};

struct NetlistPartition
{
    std::vector<NetlistProcess> processes;
    NetlistPartitionStats stats;
};

/** Split into per-sink cones and merge down to at most num_processes
 *  (>= 1).  Dead nodes feeding no register / memory write / effect
 *  are dropped.  A netlist with no sinks yields zero processes.
 *  stats.serialCost is filled in either way. */
NetlistPartition partitionNetlist(const Netlist &netlist,
                                  unsigned num_processes, MergeAlgo algo);

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_PARTITION_HH
