/**
 * @file
 * Shared helpers for the per-table/per-figure benchmark harnesses:
 * environment banner (the analogue of the paper's Table 2), wall-clock
 * rate measurement with adaptive chunking, and small formatting
 * utilities.  Every harness prints the same rows/series the paper
 * reports; EXPERIMENTS.md records paper-vs-measured.
 */

#ifndef MANTICORE_BENCH_COMMON_HH
#define MANTICORE_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "designs/designs.hh"
#include "engine/registry.hh"
#include "support/logging.hh"
#include "support/namelist.hh"

namespace manticore::bench {

/** Parse a `--engine <name>` / `--engine=<name>` flag so every bench
 *  can select an execution engine by registry name (engine::list());
 *  returns `fallback` when the flag is absent and fatals — listing
 *  the registry — on unknown names. */
inline std::string
engineFlag(int argc, char **argv, const std::string &fallback)
{
    std::string chosen;
    bool given = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--engine") == 0) {
            given = true;
            chosen = i + 1 < argc ? argv[i + 1] : "";
        } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
            given = true;
            chosen = argv[i] + 9;
        }
    }
    if (!given)
        return fallback; // flag absent: the bench's default stands
    if (chosen.empty())
        MANTICORE_FATAL("--engine needs a value (registered engines: ",
                        formatNameList(engine::names()), ")");
    const engine::EngineInfo *info = engine::find(chosen);
    if (!info)
        MANTICORE_FATAL("--engine ", chosen, ": no such engine "
                        "(registered engines: ",
                        formatNameList(engine::names()), ")");
    if (!info->available)
        MANTICORE_FATAL("--engine ", chosen,
                        ": not available on this host (",
                        info->availabilityNote, ")");
    return chosen;
}

/** Parse a `--cache-dir <dir>` / `--cache-dir=<dir>` flag for the
 *  benches that exercise the AOT object cache (bench_aot); returns
 *  `fallback` when absent so the default resolution (see
 *  netlist/aot.hh) stands. */
inline std::string
cacheDirFlag(int argc, char **argv, const std::string &fallback = "")
{
    std::string chosen = fallback;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cache-dir") == 0) {
            if (i + 1 >= argc || argv[i + 1][0] == '\0')
                MANTICORE_FATAL("--cache-dir needs a directory");
            chosen = argv[i + 1];
        } else if (std::strncmp(argv[i], "--cache-dir=", 12) == 0) {
            chosen = argv[i] + 12;
            if (chosen.empty())
                MANTICORE_FATAL("--cache-dir needs a directory");
        }
    }
    return chosen;
}

/** Parse a `--lanes <n>` / `--lanes=<n>` flag for the ensemble
 *  benches.  Returns `fallback` when the flag is absent (benches use
 *  0 as "sweep the built-in lane counts"); 0 or junk values are a
 *  fatal(). */
inline unsigned
lanesFlag(int argc, char **argv, unsigned fallback = 0)
{
    std::string chosen;
    bool given = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--lanes") == 0) {
            given = true;
            chosen = i + 1 < argc ? argv[i + 1] : "";
        } else if (std::strncmp(argv[i], "--lanes=", 8) == 0) {
            given = true;
            chosen = argv[i] + 8;
        }
    }
    if (!given)
        return fallback;
    char *end = nullptr;
    unsigned long lanes =
        chosen.empty() ? 0 : std::strtoul(chosen.c_str(), &end, 10);
    if (chosen.empty() || (end && *end != '\0') || lanes == 0 ||
        lanes > 4096)
        MANTICORE_FATAL("--lanes needs a positive lane count, got '",
                        chosen, "'");
    return static_cast<unsigned>(lanes);
}

/** Print the host environment (our stand-in for Table 2). */
inline void
printEnvironment(const char *experiment)
{
    std::printf("=============================================================\n");
    std::printf("%s\n", experiment);
    std::printf("host: %u hardware thread(s) "
                "(paper hosts: i7-9700K 8c / Xeon 8272CL 32c / "
                "EPYC 7V73X 120c)\n",
                std::thread::hardware_concurrency());
    std::printf("=============================================================\n");
}

/** Measure a stepped simulation's rate in kHz.  step(chunk) must
 *  advance `chunk` cycles and return false to stop early; max_cycles
 *  caps the total so self-checking drivers never fire mid-run. */
inline double
measureRateKhz(const std::function<bool(uint64_t)> &step,
               uint64_t max_cycles, double seconds_budget = 0.2,
               uint64_t chunk = 2048)
{
    using clock = std::chrono::steady_clock;
    uint64_t done = 0;
    auto start = clock::now();
    double elapsed = 0.0;
    while (done + chunk <= max_cycles) {
        if (!step(chunk))
            break;
        done += chunk;
        elapsed = std::chrono::duration<double>(clock::now() - start)
                      .count();
        if (elapsed >= seconds_budget)
            break;
    }
    if (done == 0 || elapsed <= 0.0)
        return 0.0;
    return static_cast<double>(done) / elapsed / 1000.0;
}

/** A rate measured k times: what a BENCH row reports, since one
 *  0.2 s sample cannot resolve a 10% effect on a shared host. */
struct RateSample
{
    double median = 0.0;
    double q1 = 0.0; ///< first quartile
    double q3 = 0.0; ///< third quartile
    unsigned n = 0;
};

/** The p-quantile (0..1) of an ascending vector, interpolating
 *  linearly between the closest ranks. */
inline double
quantile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double pos = p * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) *
                            (pos - static_cast<double>(lo));
}

/** Median and quartiles of k calls of `sample`, each returning one
 *  rate in kHz (typically one measureRateKhz window on a fresh
 *  engine, so every sample starts from the same state). */
inline RateSample
medianRateKhz(const std::function<double()> &sample, unsigned k = 5)
{
    std::vector<double> xs;
    for (unsigned i = 0; i < k; ++i)
        xs.push_back(sample());
    std::sort(xs.begin(), xs.end());
    return {quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75),
            k};
}

/** One JSON fragment `"key": median, "key_q1": q1, "key_q3": q3, `
 *  for a bench row (the caller writes n once per row). */
inline void
writeRate(FILE *json, const char *key, const RateSample &r)
{
    std::fprintf(json,
                 "\"%s\": %.2f, \"%s_q1\": %.2f, \"%s_q3\": %.2f, ",
                 key, r.median, key, r.q1, key, r.q3);
}

inline double
geomean(const std::vector<double> &xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/** Per-design cycle horizons large enough for steady-state rate
 *  measurement but cheap enough for golden-model generation. */
inline uint64_t
measureHorizon(const std::string &name)
{
    if (name == "jpeg")
        return 4'000'000;
    if (name == "blur" || name == "bc")
        return 1'000'000;
    return 600'000;
}

} // namespace manticore::bench

#endif // MANTICORE_BENCH_COMMON_HH
