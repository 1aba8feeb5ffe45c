/**
 * @file
 * Simulation: the library's top-level convenience API.  Give it a
 * netlist and a machine configuration; it compiles the design, boots
 * the cycle-level machine, wires up the host runtime, and exposes
 * run / rate / log accessors.  This is the entry point the examples
 * and benchmarks use — the "three lines to simulate your design"
 * experience of the README quickstart.  (For engine-agnostic
 * harnesses, engine::Session + engine::create is the more general
 * spelling; Simulation remains the machine-centric facade.)
 *
 * runCrossChecked() locksteps the machine against a golden-model
 * netlist evaluator, runIsaCrossChecked() against a functional ISA
 * interpreter on the same compiled program.  Both are thin wrappers
 * over the generic engine::CrossCheck harness — the machine is the
 * subject engine, the golden engine is selectable by registry name,
 * and the first mismatch is reported with its cycle and signal
 * through divergence().
 */

#ifndef MANTICORE_RUNTIME_SIMULATION_HH
#define MANTICORE_RUNTIME_SIMULATION_HH

#include <memory>
#include <optional>
#include <string>

#include "compiler/compiler.hh"
#include "engine/adapters.hh"
#include "engine/crosscheck.hh"
#include "machine/machine.hh"
#include "netlist/evaluator.hh"
#include "netlist/netlist.hh"
#include "runtime/host.hh"

namespace manticore::runtime {

class Simulation
{
  public:
    /** Plain simulation: no golden model is kept, so the netlist is
     *  not copied. */
    Simulation(const netlist::Netlist &netlist,
               const compiler::CompileOptions &options = {});

    /** Cross-checkable simulation: keeps a copy of the netlist and
     *  builds the golden engine, a netlist-level registry name
     *  (engine::create), lazily on the first runCrossChecked call.
     *  @param golden_options engine options (thread count / merge
     *  algorithm for netlist.parallel*). */
    Simulation(const netlist::Netlist &netlist,
               const compiler::CompileOptions &options,
               const std::string &golden_engine,
               const netlist::EvalOptions &golden_options = {});

    /** Simulate up to max_vcycles RTL cycles. */
    isa::RunStatus run(uint64_t max_vcycles);

    /** Simulate up to max_vcycles RTL cycles with the machine and the
     *  golden-model evaluator in lockstep (engine::CrossCheck),
     *  comparing engine status and every RTL register at each Vcycle
     *  boundary.  Returns Failed (with divergence() set) at the first
     *  mismatch.  Requires construction with a golden engine. */
    isa::RunStatus runCrossChecked(uint64_t max_vcycles);

    /** Simulate up to max_vcycles RTL cycles with the machine and a
     *  functional ISA interpreter (`engine_name`: isa.reference or
     *  isa.tape, on the same compiled program) in lockstep.
     *  Available on any Simulation (no netlist copy needed). */
    isa::RunStatus
    runIsaCrossChecked(uint64_t max_vcycles,
                       const std::string &engine_name = "isa.tape");

    /** Validate an N-lane ensemble engine of this design: build
     *  `subject_engine` ("netlist.parallel" or "netlist.compiled")
     *  with `lanes` lanes plus `lanes` independent scalar golden
     *  runs of the configured golden engine, drive each lane's
     *  stimulus through `stimulus` (optional; closed designs
     *  self-drive), and lockstep-compare every lane — status, cycle
     *  counts, failure messages and every RTL register — including
     *  divergent per-lane finish/assert cycles
     *  (engine::EnsembleCrossCheck).  Returns Failed with
     *  divergence() set at the first mismatch.  Requires
     *  construction with a golden engine. */
    isa::RunStatus runEnsembleCrossChecked(
        uint64_t max_vcycles, unsigned lanes,
        const engine::LaneStimulus &stimulus = {},
        const std::string &subject_engine = "netlist.parallel");

    /** Description of the first cross-check mismatch; empty if none. */
    const std::string &divergence() const { return _divergence; }

    /** Registry name of the golden engine configured for
     *  cross-checks; empty when constructed without one. */
    const std::string &goldenEngine() const { return _goldenEngine; }

    isa::RunStatus status() const { return _machine->status(); }
    uint64_t vcycles() const { return _machine->perf().vcycles; }

    /** Effective simulation rate (kHz) at the configured compute
     *  clock, accounting for global stalls. */
    double effectiveRateKhz() const;

    const compiler::CompileResult &compileResult() const
    {
        return _compiled;
    }
    machine::Machine &machine() { return *_machine; }
    /** The machine as an engine::Engine (probes wired to the
     *  compiler's observation map). */
    engine::Engine &machineEngine() { return *_machineEngine; }
    Host &host() { return *_host; }
    const std::vector<std::string> &displayLog() const
    {
        return _host->displayLog();
    }

  private:
    isa::RunStatus crossCheckAgainst(engine::Engine &golden,
                                     uint64_t max_vcycles);

    /// Netlist copy for golden-model construction; engaged only by
    /// the cross-checkable constructor.
    std::optional<netlist::Netlist> _netlist;
    compiler::CompileResult _compiled;
    isa::MachineConfig _config;
    std::string _goldenEngine;
    netlist::EvalOptions _goldenOptions;
    std::unique_ptr<machine::Machine> _machine;
    /// RTL register observation table (names / widths / chunk homes).
    std::vector<engine::RtlSignal> _signals;
    /// Engine view of *_machine: the cross-check subject.
    std::unique_ptr<engine::MachineEngine> _machineEngine;
    std::unique_ptr<Host> _host;
    /// Lazily-created golden engines (netlist- and ISA-level).
    std::unique_ptr<engine::Engine> _golden;
    std::unique_ptr<engine::Engine> _isaGolden;
    std::string _divergence;
};

} // namespace manticore::runtime

#endif // MANTICORE_RUNTIME_SIMULATION_HH
