#include "runtime/simulation.hh"

#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "support/logging.hh"

namespace manticore::runtime {

namespace {

isa::RunStatus
toRunStatus(engine::Status status)
{
    switch (status) {
      case engine::Status::Running: return isa::RunStatus::Running;
      case engine::Status::Finished: return isa::RunStatus::Finished;
      case engine::Status::Failed: return isa::RunStatus::Failed;
    }
    return isa::RunStatus::Failed;
}

} // namespace

Simulation::Simulation(const netlist::Netlist &netlist,
                       const compiler::CompileOptions &options)
    : _compiled(compiler::compile(netlist, options)),
      _config(options.config)
{
    _machine = std::make_unique<machine::Machine>(_compiled.program,
                                                  _config);
    _signals = engine::rtlSignals(netlist, _compiled);
    _machineEngine =
        std::make_unique<engine::MachineEngine>(*_machine, _signals);
    _host = std::make_unique<Host>(_compiled.program,
                                   _machine->globalMemory());
    _host->attach(*_machineEngine);
}

Simulation::Simulation(const netlist::Netlist &netlist,
                       const compiler::CompileOptions &options,
                       const std::string &golden_engine,
                       const netlist::EvalOptions &golden_options)
    : Simulation(netlist, options)
{
    _netlist = netlist;
    _goldenEngine = golden_engine;
    _goldenOptions = golden_options;
}

isa::RunStatus
Simulation::run(uint64_t max_vcycles)
{
    return _machine->run(max_vcycles);
}

isa::RunStatus
Simulation::crossCheckAgainst(engine::Engine &golden,
                              uint64_t max_vcycles)
{
    engine::CrossCheck harness(golden, *_machineEngine);
    engine::RunResult result = harness.run(max_vcycles);
    _divergence = harness.divergence();
    return toRunStatus(result.status);
}

isa::RunStatus
Simulation::runCrossChecked(uint64_t max_vcycles)
{
    MANTICORE_ASSERT(_netlist.has_value(),
                     "runCrossChecked requires constructing Simulation "
                     "with a golden engine");
    if (!_golden) {
        engine::CreateOptions options;
        options.eval = _goldenOptions;
        _golden = engine::create(_goldenEngine, *_netlist, options);
    }
    return crossCheckAgainst(*_golden, max_vcycles);
}

isa::RunStatus
Simulation::runIsaCrossChecked(uint64_t max_vcycles,
                               const std::string &engine_name)
{
    if (!_isaGolden || engine_name != _isaGolden->name())
        _isaGolden = engine::create(engine_name, _compiled.program,
                                    _config, _signals);
    return crossCheckAgainst(*_isaGolden, max_vcycles);
}

isa::RunStatus
Simulation::runEnsembleCrossChecked(uint64_t max_vcycles, unsigned lanes,
                                    const engine::LaneStimulus &stimulus,
                                    const std::string &subject_engine)
{
    MANTICORE_ASSERT(_netlist.has_value(),
                     "runEnsembleCrossChecked requires constructing "
                     "Simulation with a golden engine");
    engine::CreateOptions subject_options;
    subject_options.lanes = lanes;
    subject_options.eval = _goldenOptions;
    subject_options.eval.lanes = lanes;
    std::unique_ptr<engine::Engine> subject =
        engine::create(subject_engine, *_netlist, subject_options);

    // One independent scalar golden run per lane, on the configured
    // golden engine.
    engine::CreateOptions golden_options;
    golden_options.eval = _goldenOptions;
    golden_options.eval.lanes = 1; // goldens are scalar by definition
    std::vector<std::unique_ptr<engine::Engine>> goldens;
    std::vector<engine::Engine *> golden_ptrs;
    for (unsigned l = 0; l < lanes; ++l) {
        goldens.push_back(
            engine::create(_goldenEngine, *_netlist, golden_options));
        golden_ptrs.push_back(goldens.back().get());
    }

    engine::EnsembleCrossCheck harness(golden_ptrs, *subject);
    if (stimulus)
        harness.setStimulus(stimulus);
    engine::RunResult result = harness.run(max_vcycles);
    _divergence = harness.divergence();
    return toRunStatus(result.status);
}

double
Simulation::effectiveRateKhz() const
{
    const machine::PerfCounters &perf = _machine->perf();
    if (perf.totalCycles() == 0)
        return 0.0;
    return _config.clockKhz * static_cast<double>(perf.vcycles) /
           static_cast<double>(perf.totalCycles());
}

} // namespace manticore::runtime
