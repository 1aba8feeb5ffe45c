/**
 * @file
 * Multi-tenant service overhead: aggregate simulated throughput and
 * poll latency as the tenant count grows 1 -> 64 over ONE fixed
 * worker pool, against a dedicated single-engine serial baseline
 * stepped like a tenant: a direct step() loop in the scheduler's
 * quantum.
 *
 * What it shows: one tenant against the baseline is the cost of
 * time-slicing (one lock hop per quantum of thousands of cycles);
 * more tenants than one spread over the workers, so the aggregate
 * can approach min(tenants, workers) times the baseline.  Polling a
 * session is wait-free against the quantum (published state, never
 * the engine), so p99 poll latency stays in microseconds even while
 * every worker is saturated.
 *
 * Rows land in BENCH_service.json.  `--engine <name>` selects the
 * tenant engine (default netlist.compiled).
 */

#include <algorithm>
#include <chrono>
#include <thread>

#include "bench/common.hh"
#include "netlist/builder.hh"
#include "service/session.hh"

using namespace manticore;
using clock_type = std::chrono::steady_clock;

namespace {

/** Free-running counter that never finishes inside a bench run. */
netlist::Netlist
counterDesign()
{
    netlist::CircuitBuilder b("ctr32");
    auto c = b.reg("c", 32);
    b.next(c, c.read() + b.lit(32, 1));
    b.finish(c.read() == b.lit(32, 0x7fffffff));
    return b.build();
}

double
percentileUs(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t idx = static_cast<size_t>(
        p * static_cast<double>(samples.size() - 1));
    return samples[idx];
}

} // namespace

int
main(int argc, char **argv)
{
    std::string engine =
        bench::engineFlag(argc, argv, "netlist.compiled");
    bench::printEnvironment("service: multi-tenant scheduling "
                            "overhead (manticored's scheduler)");

    // Serial baseline: one dedicated engine, no scheduler, stepped in
    // the tenants' quantum after one warm-up quantum.
    const service::SchedulerOptions sched_options;
    const uint64_t quantum = sched_options.quantumCycles;
    double serial_khz;
    {
        auto eng = engine::create(engine, counterDesign());
        eng->step(quantum);
        uint64_t done = 0;
        double seconds = 0.0;
        auto start = clock_type::now();
        while (seconds < 0.4) {
            eng->step(quantum);
            done += quantum;
            seconds = std::chrono::duration<double>(clock_type::now() -
                                                    start)
                          .count();
        }
        serial_khz = static_cast<double>(done) / seconds / 1000.0;
    }
    const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
    std::printf("serial baseline (%s, dedicated, step(%llu)): %.0f kHz; "
                "%u workers\n\n",
                engine.c_str(), static_cast<unsigned long long>(quantum),
                serial_khz, workers);

    // Fixed total work, split across N tenants of one scheduler.
    const uint64_t total_cycles = std::max<uint64_t>(
        1u << 20, static_cast<uint64_t>(serial_khz * 1000 * 0.4));

    FILE *json = std::fopen("BENCH_service.json", "w");
    if (json)
        std::fprintf(json,
                     "{\n  \"experiment\": \"service\",\n"
                     "  \"engine\": \"%s\",\n"
                     "  \"workers\": %u,\n"
                     "  \"quantum_cycles\": %llu,\n"
                     "  \"serial_khz\": %.1f,\n"
                     "  \"rows\": [",
                     engine.c_str(), workers,
                     static_cast<unsigned long long>(quantum), serial_khz);

    std::printf("%8s %12s %10s %12s %12s\n", "tenants", "agg kHz",
                "vs serial", "poll p50 us", "poll p99 us");
    bool first = true;
    for (unsigned tenants : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        service::Scheduler sched{sched_options};
        std::vector<service::SessionHandle> handles;
        std::string error;
        uint64_t per_tenant = total_cycles / tenants;
        for (unsigned t = 0; t < tenants; ++t) {
            auto h = service::SessionHandle::create(
                sched, engine, counterDesign(), {}, &error);
            if (!h.valid())
                MANTICORE_FATAL("tenant ", t, ": ", error);
            if (!h.wait())
                MANTICORE_FATAL("tenant ", t, " never became ready");
            handles.push_back(std::move(h));
        }

        // Submit everything, then sample poll latency from a side
        // thread while the pool drains the queues.
        auto start = clock_type::now();
        for (auto &h : handles)
            if (!h.submitRun(per_tenant, &error))
                MANTICORE_FATAL("submit: ", error);

        std::vector<double> poll_us;
        std::atomic<bool> sampling{true};
        std::thread sampler([&] {
            size_t i = 0;
            while (sampling.load(std::memory_order_relaxed)) {
                auto t0 = clock_type::now();
                handles[i++ % handles.size()].poll();
                poll_us.push_back(
                    std::chrono::duration<double, std::micro>(
                        clock_type::now() - t0)
                        .count());
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        });
        for (auto &h : handles)
            h.wait();
        double seconds =
            std::chrono::duration<double>(clock_type::now() - start)
                .count();
        sampling.store(false);
        sampler.join();

        double agg_khz = static_cast<double>(per_tenant) * tenants /
                         seconds / 1000.0;
        double rel = serial_khz > 0 ? agg_khz / serial_khz : 0.0;
        double p50 = percentileUs(poll_us, 0.50);
        double p99 = percentileUs(poll_us, 0.99);
        std::printf("%8u %12.0f %9.1f%% %12.1f %12.1f\n", tenants,
                    agg_khz, 100.0 * rel, p50, p99);
        if (json) {
            std::fprintf(json,
                         "%s\n    {\"tenants\": %u, "
                         "\"agg_khz\": %.1f, \"relative\": %.3f, "
                         "\"poll_p50_us\": %.1f, "
                         "\"poll_p99_us\": %.1f, "
                         "\"poll_samples\": %zu}",
                         first ? "" : ",", tenants, agg_khz, rel, p50,
                         p99, poll_us.size());
            first = false;
        }
    }
    if (json) {
        std::fprintf(json, "\n  ]\n}\n");
        std::fclose(json);
        std::printf("wrote BENCH_service.json\n");
    }
    return 0;
}
