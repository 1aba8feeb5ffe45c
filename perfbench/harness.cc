/**
 * @file
 * The benchmark harness: one process runs one round of one workload,
 * from generated netlists to checked verdicts, and prints one JSON
 * object of raw measurements on its last line.  perfbench/run.py
 * repeats rounds, aggregates them and prints the metrics named in
 * BENCHMARK.json; see perfbench/README.md for what each workload
 * stresses and bypasses.
 *
 *   perfbench_harness --mode plan|setup|round --workload W --seed S
 *                     [--trace 0|1]
 *
 *   plan   the seeded plan: jobs, lengths, order and a hash of every
 *          generated netlist (the reproducibility self-test reads it)
 *   setup  handoff until the first engine can step, then exit
 *   round  the whole workload, handoff to the last checked verdict
 *
 * Layers.  `designs` only generates input: generation happens before
 * the handoff and is outside every timed window.  `engine`,
 * `netlist`, `exec` and `service` are measured.  Spans are recorded
 * here, around this file's own calls into their public functions;
 * nothing inside src/ is traced.  Work that exists only to feed a
 * per-layer number (partitioning census, serial yardsticks, the
 * dedicated farm run, the toolchain re-probe) runs after the last
 * verdict, so a traced round's verdict window differs from an
 * untraced one only by the span bookkeeping.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "designs/designs.hh"
#include "engine/registry.hh"
#include "netlist/aot.hh"
#include "netlist/partition.hh"
#include "service/scheduler.hh"
#include "service/session.hh"
#include "support/hashing.hh"
#include "support/logging.hh"
#include "support/rng.hh"

#include "perfbench_build.hh" // PERFBENCH_COMPILER, PERFBENCH_FLAGS (generated)

using namespace manticore;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

// ---------------------------------------------------------------------------
// Seeded plan
// ---------------------------------------------------------------------------

struct Job
{
    std::string design;
    /// Check cycle: the design displays its checksum and finishes here.
    uint64_t cycles = 0;
};

struct Plan
{
    std::string workload;
    /// Registry engine every job of the workload runs on.
    std::string engine;
    /// netlist.parallel process count P, or the farm's worker count.
    unsigned threads = 1;
    /// Farm tenants (closed-loop clients); 0 outside the farm.
    unsigned tenants = 0;
    /// step(n) batch, or the farm's quantumCycles.
    uint64_t chunk = 4096;
    std::vector<Job> jobs;
};

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** base ± pct%, drawn from the seed: every seed gets its own
 *  netlists (the golden checksum depends on the check cycle) while
 *  the work per round stays within pct% of the base. */
uint64_t
jitter(Rng &rng, uint64_t base, uint64_t pct)
{
    uint64_t span = base * pct / 100;
    return base - span + rng.below(2 * span + 1);
}

/** The workload definitions.  P = nproc on wide and narrow, and
 *  tenants = workers = nproc on farm, are part of what the benchmark
 *  measures (see perfbench/README.md); they are not tuning knobs. */
Plan
makePlan(const std::string &workload, uint64_t seed)
{
    Rng rng(seed ^ fnv1a64(workload));
    Plan p;
    p.workload = workload;
    if (workload == "wide") {
        p.engine = "netlist.parallel";
        p.threads = hostThreads();
        p.jobs = {{"mm32", jitter(rng, 220'000, 2)},
                  {"mc128", jitter(rng, 280'000, 2)}};
    } else if (workload == "narrow") {
        p.engine = "netlist.parallel";
        p.threads = hostThreads();
        p.jobs = {{"jpeg", jitter(rng, 600'000, 2)},
                  {"noc", jitter(rng, 350'000, 2)}};
    } else if (workload == "farm") {
        p.engine = "netlist.compiled";
        p.threads = hostThreads();
        p.tenants = p.threads;
        // Sixteen short (one-quantum) and eight long jobs per catalog
        // design, in a seeded order.  Two to one keeps job_s_p50 inside
        // the short jobs and job_s_p90 inside the long ones, away from
        // the gap between them.  Many long jobs of a few quanta keep
        // the round throughput-bound: the slowest long job (rv32r,
        // ~0.15 s) is a small tail, so one preempted worker near the
        // end does not set the round's verdict_s.
        for (const designs::Benchmark &b : designs::allBenchmarks())
            for (int k = 0; k < 24; ++k)
                p.jobs.push_back(
                    {b.name, jitter(rng, k < 16 ? 3'000 : 25'000, 10)});
        for (size_t i = p.jobs.size(); i > 1; --i)
            std::swap(p.jobs[i - 1], p.jobs[rng.below(i)]);
    } else {
        MANTICORE_FATAL("unknown workload '", workload,
                        "' (workloads: wide, narrow, farm)");
    }
    return p;
}

/** The `designs` layer: input generation only. */
netlist::Netlist
generate(const Job &job)
{
    if (job.design == "mm32")
        return designs::buildMmSized(job.cycles, 32);
    if (job.design == "mc128")
        return designs::buildMcSized(job.cycles, 128);
    for (const designs::Benchmark &b : designs::allBenchmarks())
        if (b.name == job.design)
            return b.build(job.cycles);
    MANTICORE_FATAL("unknown design '", job.design, "'");
}

/** The checksum the generator computed, as the design's self-check
 *  assertion states it ("... checksum mismatch (golden N)"). */
uint32_t
goldenOf(const netlist::Netlist &nl)
{
    static const std::string kTag = "(golden ";
    for (const netlist::Assert &a : nl.asserts()) {
        size_t at = a.message.find(kTag);
        if (at != std::string::npos)
            return static_cast<uint32_t>(
                std::strtoul(a.message.c_str() + at + kTag.size(),
                             nullptr, 10));
    }
    MANTICORE_FATAL("netlist ", nl.name(), " carries no golden checksum");
}

/** The first `count` jobs' netlists and golden checksums. */
void
generateAll(const Plan &plan, size_t count,
            std::vector<netlist::Netlist> *nls, std::vector<uint32_t> *goldens)
{
    for (size_t i = 0; i < count; ++i) {
        nls->push_back(generate(plan.jobs[i]));
        goldens->push_back(goldenOf(nls->back()));
    }
}

// ---------------------------------------------------------------------------
// Verdicts
// ---------------------------------------------------------------------------

/** A job is correct when it ended Finished at its check cycle and its
 *  last $display carries the generator's checksum.  Returns "" when
 *  correct, else why not. */
std::string
checkVerdict(engine::Status status, uint64_t cycle,
             const std::vector<std::string> &log, const Job &job,
             uint32_t golden)
{
    if (status != engine::Status::Finished)
        return std::string("ended ") + engine::statusName(status);
    if (cycle != job.cycles + 1)
        return "finished at cycle " + std::to_string(cycle) +
               ", expected " + std::to_string(job.cycles + 1);
    std::string want = ": checksum=" + std::to_string(golden) +
                       " after " + std::to_string(job.cycles) +
                       " cycles";
    const std::string last = log.empty() ? "" : log.back();
    if (last.size() < want.size() ||
        last.compare(last.size() - want.size(), want.size(), want) != 0)
        return "last $display '" + last + "' lacks '" + want + "'";
    return "";
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanRec
{
    const char *name;
    size_t parent; ///< index + 1 of the enclosing span, 0 at the root
    int job;       ///< job index the span belongs to, -1 for none
    double t0 = 0.0;
    double t1 = 0.0;
    double work = 0.0; ///< lane-cycles advanced (engine.step spans)
};

/** In-memory span log; a no-op when tracing is off.  Single-threaded:
 *  every span is opened and closed on the harness's main thread. */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on) {}

    size_t
    open(const char *name, int job)
    {
        if (!_on)
            return 0;
        size_t parent = _stack.empty() ? 0 : _stack.back() + 1;
        _spans.push_back({name, parent, job, now()});
        _stack.push_back(_spans.size() - 1);
        return _spans.size() - 1;
    }

    void
    close(size_t id, double work)
    {
        if (!_on)
            return;
        _spans[id].t1 = now();
        _spans[id].work = work;
        _stack.pop_back();
    }

    const std::vector<SpanRec> &spans() const { return _spans; }

  private:
    bool _on;
    std::vector<SpanRec> _spans;
    std::vector<size_t> _stack;
};

class Span
{
  public:
    Span(Tracer &tracer, const char *name, int job = -1)
        : _tracer(tracer), _id(tracer.open(name, job))
    {}
    ~Span() { _tracer.close(_id, _work); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void work(double w) { _work = w; }

  private:
    Tracer &_tracer;
    size_t _id;
    double _work = 0.0;
};

// ---------------------------------------------------------------------------
// Result record (one JSON object)
// ---------------------------------------------------------------------------

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct JobResult
{
    Job job;
    /// Admission (engine::create / createSession) to checked verdict.
    double latency_s = 0.0;
    bool failed = false;
    std::string why;
    /// Farm only: admission-relative times the poll loop saw.
    double ready_s = -1.0;
    double first_quantum_wait_s = -1.0;
};

struct Round
{
    double setup_s = 0.0;
    double verdict_s = 0.0;
    /// Host seconds spent stepping, and the lane-cycles they advanced.
    double step_s = 0.0;
    uint64_t lane_cycles = 0;
    /// Simulations each engine advanced per step.
    unsigned lanes = 1;
    std::vector<JobResult> jobs;
    /// Verdicts of the traced-only yardstick runs.
    unsigned extra_attempted = 0;
    unsigned extra_failed = 0;
    std::vector<std::string> extra_why;
    /// Per-layer values that are not span durations.
    std::map<std::string, double> layer;
};

void
printResult(const Plan &plan, uint64_t seed, const Round &r,
            const Tracer &tracer)
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    std::ostringstream o;
    o << "{\"workload\":" << quote(plan.workload) << ",\"seed\":" << seed
      << ",\"engine\":" << quote(plan.engine)
      << ",\"threads\":" << plan.threads
      << ",\"tenants\":" << plan.tenants << ",\"chunk\":" << plan.chunk
      << ",\"host_threads\":" << hostThreads()
      << ",\"compiler\":" << quote(PERFBENCH_COMPILER)
      << ",\"flags\":" << quote(PERFBENCH_FLAGS)
      << ",\"aot_compiler\":" << quote(netlist::aotToolchain().compiler)
      << ",\"setup_s\":" << num(r.setup_s)
      << ",\"verdict_s\":" << num(r.verdict_s)
      << ",\"step_s\":" << num(r.step_s)
      << ",\"lane_cycles\":" << r.lane_cycles << ",\"lanes\":" << r.lanes
      << ",\"peak_rss_mb\":" << num(ru.ru_maxrss / 1024.0)
      << ",\"extra_attempted\":" << r.extra_attempted
      << ",\"extra_failed\":" << r.extra_failed << ",\"extra_why\":[";
    for (size_t i = 0; i < r.extra_why.size(); ++i)
        o << (i ? "," : "") << quote(r.extra_why[i]);
    o << "],\"jobs\":[";
    for (size_t i = 0; i < r.jobs.size(); ++i) {
        const JobResult &j = r.jobs[i];
        o << (i ? "," : "") << "{\"design\":" << quote(j.job.design)
          << ",\"cycles\":" << j.job.cycles
          << ",\"latency_s\":" << num(j.latency_s)
          << ",\"failed\":" << j.failed << ",\"why\":" << quote(j.why)
          << ",\"ready_s\":" << num(j.ready_s)
          << ",\"first_quantum_wait_s\":" << num(j.first_quantum_wait_s)
          << "}";
    }
    o << "],\"layer\":{";
    bool first = true;
    for (const auto &[k, v] : r.layer) {
        o << (first ? "" : ",") << quote(k) << ":" << num(v);
        first = false;
    }
    o << "},\"spans\":[";
    const std::vector<SpanRec> &spans = tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        o << (i ? "," : "") << "[" << quote(s.name) << "," << i + 1 << ","
          << s.parent << "," << s.job << "," << num(s.t0) << ","
          << num(s.t1) << "," << num(s.work) << "]";
    }
    o << "]}";
    std::printf("%s\n", o.str().c_str());
}

// ---------------------------------------------------------------------------
// Engine workloads (wide, narrow)
// ---------------------------------------------------------------------------

uint64_t
statOf(const engine::Engine &eng, const std::string &name)
{
    for (const engine::Stat &s : eng.stats())
        if (s.name == name)
            return s.value;
    return 0;
}

/** Step to the end of the run in `chunk` batches; adds the host
 *  seconds spent inside step() to *step_s. */
void
stepToEnd(engine::Engine &eng, uint64_t chunk, Tracer &tracer, int job,
          double *step_s)
{
    while (eng.status() == engine::Status::Running) {
        double t0 = now();
        engine::RunResult rr;
        {
            Span s(tracer, "engine.step", job);
            rr = eng.step(chunk);
            s.work(static_cast<double>(rr.cycles) * rr.lanes);
        }
        *step_s += now() - t0;
        if (rr.cycles == 0)
            break;
    }
}

/** checkVerdict on an engine that has stopped stepping. */
std::string
checkEngine(const engine::Engine &eng, const Job &job, uint32_t golden)
{
    return checkVerdict(eng.status(), eng.cycle(), eng.displayLog(), job,
                        golden);
}

/** A serial netlist.compiled run to verdict outside the measured
 *  window (the yardstick): returns the host seconds spent stepping. */
double
yardstickSeconds(const netlist::Netlist &nl, const Job &job,
                 uint64_t chunk, Round &r)
{
    Tracer off(false);
    auto eng = engine::create("netlist.compiled", nl);
    double step_s = 0.0;
    stepToEnd(*eng, chunk, off, -1, &step_s);
    ++r.extra_attempted;
    std::string why = checkEngine(*eng, job, goldenOf(nl));
    if (!why.empty()) {
        ++r.extra_failed;
        r.extra_why.push_back("yardstick " + job.design + ": " + why);
    }
    return step_s;
}

/** Traced-only partition census: the netlist::partitionNetlist the
 *  parallel engine runs, called on each design at P = nproc. */
void
partitionCensus(const std::vector<netlist::Netlist> &nls, Tracer &tracer,
                Round &r)
{
    double processes = 0, sends = 0, total = 0, straggler = 0;
    for (size_t i = 0; i < nls.size(); ++i) {
        netlist::NetlistPartition part;
        {
            Span s(tracer, "netlist.partitionNetlist", static_cast<int>(i));
            part = netlist::partitionNetlist(nls[i], hostThreads(),
                                             MergeAlgo::Balanced);
        }
        processes += part.stats.mergedProcesses;
        sends += part.stats.estimatedSends;
        total += part.stats.totalCost;
        straggler += part.stats.estimatedMaxCost;
    }
    r.layer["netlist.partition.processes"] = processes;
    r.layer["netlist.partition.sends"] = sends;
    // Summed over the workload's designs: total work over total
    // straggler work, the model's ceiling on the parallel speedup.
    r.layer["netlist.partition.balance_bound"] =
        straggler > 0 ? total / straggler : 0.0;
}

/** Traced-only re-probe of the resolved compiler: the same probe the
 *  registry's first list() paid, keyed so the memo misses once. */
void
toolchainProbe(Tracer &tracer, Round &r)
{
    const std::string cxx = netlist::aotToolchain().compiler;
    if (cxx.empty())
        return;
    double t0 = now();
    {
        Span s(tracer, "netlist.aotToolchain");
        netlist::aotToolchain(cxx);
    }
    r.layer["netlist.aot.toolchain_s"] = now() - t0;
}

void
runEngineRound(const Plan &plan, uint64_t seed, bool trace, bool setup_only)
{
    // designs: generate the inputs before the handoff (setup needs
    // only the first).
    std::vector<netlist::Netlist> nls;
    std::vector<uint32_t> goldens;
    generateAll(plan, setup_only ? 1 : plan.jobs.size(), &nls, &goldens);
    engine::CreateOptions opts;
    opts.eval.numThreads = plan.threads;
    opts.eval.mergeAlgo = MergeAlgo::Balanced;

    Tracer tracer(trace);
    Round r;
    const double handoff = now();
    {
        Span round(tracer, "round");
        {
            Span s(tracer, "engine.list");
            engine::list();
        }
        for (size_t i = 0; i < nls.size(); ++i) {
            const Job &job = plan.jobs[i];
            const int ji = static_cast<int>(i);
            const double admitted = now();
            std::unique_ptr<engine::Engine> eng;
            {
                Span s(tracer, "engine.create", ji);
                eng = engine::create(plan.engine, nls[i], opts);
            }
            if (i == 0) {
                r.setup_s = now() - handoff;
                if (setup_only)
                    break;
                r.layer["netlist.tape_length"] = statOf(*eng, "tape_length");
                r.layer["netlist.arena_limbs"] = statOf(*eng, "arena_limbs");
            }
            stepToEnd(*eng, plan.chunk, tracer, ji, &r.step_s);
            r.lane_cycles += eng->cycle() * eng->lanes();
            r.lanes = eng->lanes();

            JobResult jr;
            jr.job = job;
            jr.why = checkEngine(*eng, job, goldens[i]);
            jr.failed = !jr.why.empty();
            {
                Span s(tracer, "engine.destroy", ji);
                eng.reset();
            }
            jr.latency_s = now() - admitted;
            r.jobs.push_back(jr);
        }
    }
    r.verdict_s = now() - handoff;

    if (trace && !setup_only) {
        partitionCensus(nls, tracer, r);
        toolchainProbe(tracer, r);
        // The serial yardstick on the same designs: total cycles over
        // total stepping seconds.
        double cycles = 0, compiled_s = 0;
        for (size_t i = 0; i < nls.size(); ++i) {
            cycles += plan.jobs[i].cycles + 1;
            compiled_s += yardstickSeconds(nls[i], plan.jobs[i], plan.chunk, r);
        }
        r.layer["netlist.compiled.sim_khz"] = cycles / compiled_s / 1e3;
    }
    printResult(plan, seed, r, tracer);
}

// ---------------------------------------------------------------------------
// Farm
// ---------------------------------------------------------------------------

struct Tenant
{
    service::SessionHandle handle;
    int job = -1;
    double admitted = 0.0;
    double submitted = 0.0;
    double ready = -1.0;
    double advanced = -1.0;
};

service::SchedulerOptions
schedulerOptions(const Plan &plan)
{
    service::SchedulerOptions so;
    so.numWorkers = plan.threads;
    so.quantumCycles = plan.chunk;
    return so;
}

/** Farm setup alone: handoff until the first session polls Ready. */
void
runFarmSetup(const Plan &plan, uint64_t seed)
{
    netlist::Netlist nl = generate(plan.jobs[0]);
    Tracer off(false);
    Round r;
    const double handoff = now();
    {
        engine::list();
        service::Scheduler sched(schedulerOptions(plan));
        auto h = service::SessionHandle::create(sched, plan.engine,
                                                std::move(nl));
        while (h.valid() && h.poll().phase == service::Phase::Creating)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        r.setup_s = now() - handoff;
    }
    printResult(plan, seed, r, off);
}

void
runFarmRound(const Plan &plan, uint64_t seed, bool trace)
{
    std::vector<netlist::Netlist> nls;
    std::vector<uint32_t> goldens;
    generateAll(plan, plan.jobs.size(), &nls, &goldens);
    // The dedicated run needs its own copies: sessions take theirs.
    std::vector<netlist::Netlist> dedicated;
    if (trace)
        dedicated = nls;

    Tracer tracer(trace);
    Round r;
    r.setup_s = -1.0;
    size_t next = 0;
    size_t done = 0;
    double first_admit = 0.0, last_verdict = 0.0;
    std::vector<engine::Stat> service_stats;
    const double handoff = now();
    {
        Span round(tracer, "round");
        {
            Span s(tracer, "engine.list");
            engine::list();
        }
        service::Scheduler sched(schedulerOptions(plan));
        std::vector<Tenant> tenants(plan.tenants);
        std::vector<JobResult> results(plan.jobs.size());

        auto admit = [&](Tenant &t) {
            t = Tenant{};
            t.job = static_cast<int>(next++);
            const Job &job = plan.jobs[t.job];
            JobResult &jr = results[t.job];
            jr.job = job;
            std::string err;
            t.admitted = now();
            {
                Span s(tracer, "service.createSession", t.job);
                t.handle = service::SessionHandle::create(
                    sched, plan.engine, std::move(nls[t.job]), {}, &err);
            }
            bool ok = t.handle.valid();
            if (ok) {
                Span s(tracer, "service.submitRun", t.job);
                ok = t.handle.submitRun(job.cycles + 1, &err);
            }
            t.submitted = now();
            if (!ok) {
                jr.failed = true;
                jr.why = "admission: " + err;
            }
        };

        first_admit = now();
        for (Tenant &t : tenants)
            if (next < plan.jobs.size())
                admit(t);
        while (done < plan.jobs.size()) {
            bool progressed = false;
            for (Tenant &t : tenants) {
                if (t.job < 0)
                    continue;
                JobResult &jr = results[t.job];
                service::PollResult p;
                if (!jr.failed) {
                    Span s(tracer, "service.poll", t.job);
                    p = t.handle.poll();
                }
                double at = now();
                if (t.ready < 0 && p.phase == service::Phase::Ready) {
                    t.ready = at;
                    if (r.setup_s < 0)
                        r.setup_s = at - handoff;
                }
                if (t.advanced < 0 && p.cycle > 0)
                    t.advanced = at;
                bool over = jr.failed || p.phase == service::Phase::Broken ||
                            p.completedRuns >= 1 ||
                            p.status != engine::Status::Running;
                if (!over)
                    continue;
                if (!jr.failed) {
                    std::vector<std::string> log;
                    {
                        Span s(tracer, "service.displayLog", t.job);
                        log = t.handle.displayLog(0);
                    }
                    p = t.handle.poll();
                    jr.why = p.phase == service::Phase::Broken
                                 ? "engine construction failed: " + p.error
                                 : checkVerdict(p.status, p.cycle, log,
                                                jr.job, goldens[t.job]);
                    jr.failed = !jr.why.empty();
                    r.lanes = p.lanes;
                }
                jr.latency_s = now() - t.admitted;
                last_verdict = now();
                jr.ready_s = t.ready < 0 ? -1.0 : t.ready - t.admitted;
                jr.first_quantum_wait_s =
                    t.advanced < 0 ? -1.0 : t.advanced - t.submitted;
                {
                    Span s(tracer, "service.destroySession", t.job);
                    t.handle = service::SessionHandle();
                }
                ++done;
                progressed = true;
                t.job = -1;
                if (next < plan.jobs.size())
                    admit(t);
            }
            if (!progressed)
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        service_stats = sched.serviceStats();
        r.jobs = std::move(results);
    }
    r.verdict_s = now() - handoff;
    r.step_s = last_verdict - first_admit;
    for (const JobResult &jr : r.jobs)
        r.lane_cycles += jr.job.cycles + 1;
    for (const engine::Stat &s : service_stats)
        if (s.name == "quanta" || s.name == "cycles")
            r.layer["service." + s.name] = s.value;

    if (trace) {
        // The same job list back to back on one in-process engine at a
        // time, stepping quantumCycles per call.
        double t0 = now();
        uint64_t cycles = 0;
        double step_s = 0;
        for (size_t i = 0; i < dedicated.size(); ++i) {
            const Job &job = plan.jobs[i];
            std::unique_ptr<engine::Engine> eng;
            {
                Span s(tracer, "engine.create", static_cast<int>(i));
                eng = engine::create(plan.engine, dedicated[i]);
            }
            stepToEnd(*eng, plan.chunk, tracer, static_cast<int>(i),
                      &step_s);
            cycles += eng->cycle() * eng->lanes();
            ++r.extra_attempted;
            std::string why = checkEngine(*eng, job, goldens[i]);
            if (!why.empty()) {
                ++r.extra_failed;
                r.extra_why.push_back("dedicated " + job.design + ": " +
                                      why);
            }
            if (i == 0) {
                r.layer["netlist.tape_length"] = statOf(*eng, "tape_length");
                r.layer["netlist.arena_limbs"] = statOf(*eng, "arena_limbs");
            }
        }
        double wall = now() - t0;
        r.layer["service.dedicated_khz"] = cycles / wall / 1e3;
        // On the farm the serial yardstick is the dedicated run.
        r.layer["netlist.compiled.sim_khz"] = cycles / wall / 1e3;
        toolchainProbe(tracer, r);
    }
    printResult(plan, seed, r, tracer);
}

// ---------------------------------------------------------------------------
// Plan mode
// ---------------------------------------------------------------------------

void
printPlan(const Plan &plan, uint64_t seed)
{
    std::ostringstream o;
    o << "{\"workload\":" << quote(plan.workload) << ",\"seed\":" << seed
      << ",\"engine\":" << quote(plan.engine)
      << ",\"threads\":" << plan.threads
      << ",\"tenants\":" << plan.tenants << ",\"chunk\":" << plan.chunk
      << ",\"host_threads\":" << hostThreads() << ",\"jobs\":[";
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
        const Job &job = plan.jobs[i];
        char hash[20];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(
                          fnv1a64(generate(job).toString())));
        o << (i ? "," : "") << "{\"design\":" << quote(job.design)
          << ",\"cycles\":" << job.cycles << ",\"netlist\":\"" << hash
          << "\"}";
    }
    o << "]}";
    std::printf("%s\n", o.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args = {
        {"--mode", "round"}, {"--trace", "0"}};
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 != 1 || !args.count("--workload") || !args.count("--seed"))
        MANTICORE_FATAL("usage: perfbench_harness --mode plan|setup|round "
                        "--workload W --seed S [--trace 0|1]");
    const std::string mode = args["--mode"];
    const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
    const bool trace = args["--trace"] == "1";
    const Plan plan = makePlan(args["--workload"], seed);

    if (mode == "plan")
        printPlan(plan, seed);
    else if (mode != "round" && mode != "setup")
        MANTICORE_FATAL("unknown --mode '", mode, "'");
    else if (plan.workload == "farm" && mode == "setup")
        runFarmSetup(plan, seed);
    else if (plan.workload == "farm")
        runFarmRound(plan, seed, trace);
    else
        runEngineRound(plan, seed, trace, mode == "setup");
    return 0;
}
