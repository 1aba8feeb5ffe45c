/**
 * @file
 * The AOT executor of the compiled netlist engine (tape_evaluator.hh)
 * — behind the "netlist.aot" and "netlist.parallel.aot" presets — and
 * its host toolchain probe and hashed object cache.
 *
 * The interpreted tape maps every instruction 1:1 onto a
 * support/limbops.hh kernel but still pays one indirect dispatch (a
 * switch on the opcode) per op per cycle.  The AOT executor removes
 * that last interpretive cost Verilator-style: it walks each
 * process's lowered tape once and emits straight-line C++ — one
 * statement per instruction, with arena offsets, widths, limb counts,
 * masks and memory geometry all baked in as constants — invokes the
 * host C++ toolchain to build a shared object, dlopen()s it, and
 * installs the resulting
 *
 *     extern "C" void manticore_aot_cycle_p<K>(uint64_t *A,
 *                                              const uint64_t *const *M);
 *
 * as process K's executor, run on the current arena copy.  Effects,
 * commits, the rendezvous, probes, stats and batched run(n) are the
 * engine's own, so the AOT executor cannot drift semantically from
 * the interpreted tape — at any partition count.
 *
 * **Laned ensembles.**  With EvalOptions::lanes == N the emitted
 * source takes the (padded) lane count as a compile-time constant:
 * narrow ops become calls to the width-templated laned kernels
 * (lo::addN<L> and friends) and wide ops become constant-trip-count
 * per-lane loops with the exec::Arena lane strides baked in — the
 * same shapes as tape.cc's runImpl<L>, so the laned object is
 * semantically pinned to the interpreted ensemble.  Laned objects
 * compile -O3 plus the probed SIMD flags (-march=native where
 * supported), like the manticore_simd kernels, so AOT ensembles
 * vectorize instead of falling back to a scalar loop.
 *
 * **Object cache.**  Compiled objects are cached on disk, keyed by a
 * content hash (FNV-1a 64) of (generated source, limbops.hh content,
 * compiler path, compile flags, host CPU model): a regression farm
 * pays codegen once per design, not per run, and a cache directory
 * shared across heterogeneous hosts cannot dlopen an object built
 * for another microarchitecture (the laned objects are -march=native
 * builds).  Each process's key hashes its own emitted source, so one
 * partition's corruption rebuilds one object.  Every object embeds
 * its own key as `extern "C" const char manticore_aot_key[]`,
 * verified after dlopen — a truncated, corrupted or stale cache entry
 * fails the check, is unlinked, and is rebuilt.  Cache directory
 * resolution: EvalOptions::aotCacheDir, else $MANTICORE_AOT_CACHE,
 * else ${TMPDIR:-/tmp}/manticore-aot-cache-<uid>.
 *
 * **Cold-start concurrency.**  Cold objects compile through
 * concurrent support/subprocess invocations, bounded by
 * EvalOptions::aotJobs (0 = hardware concurrency).  Per-partition
 * objects compile as one translation unit each; a lone
 * (single-process) object is emitted as ≤1024-statement chunk
 * functions, each its own translation unit, linked with a driver TU.
 *
 * **Degradation.**  Direct TapeEvaluator construction degrades
 * gracefully: if the toolchain probe, a compile or a dlopen fails,
 * the engine warns and keeps the affected process on the
 * interpreted tape with identical results.  The registry path
 * (engine::create) is strict instead: a caller who asked for AOT by
 * name gets a fatal naming the probed toolchain.
 *
 * Env knobs: $MANTICORE_AOT_CXX (compiler override),
 * $MANTICORE_AOT_CACHE (cache dir), $MANTICORE_AOT_INCLUDE (where
 * the emitted code finds support/limbops.hh; defaults to this source
 * tree, baked in at build time).
 */

#ifndef MANTICORE_NETLIST_AOT_HH
#define MANTICORE_NETLIST_AOT_HH

#include <string>
#include <vector>

#include "netlist/evaluator.hh"

namespace manticore::netlist {

/** Result of probing one host C++ toolchain: can it compile the
 *  emitted code (including support/limbops.hh) into a loadable
 *  shared object? */
struct AotToolchain
{
    bool ok = false;
    /// The working compiler command (when ok).
    std::string compiler;
    /// When !ok: every candidate probed and why it failed — the
    /// actionable part of the registry's failure message.
    std::string message;
    /// Probed SIMD flags (subset of -march=native,
    /// -mprefer-vector-width=256 this compiler accepts) that laned
    /// (lanes > 1) objects are compiled with on top of -O3.
    std::vector<std::string> simdFlags;
};

/** Probe the host toolchain (memoized per override string, so the
 *  compile-and-dlopen probe runs once per process).  Candidates, in
 *  order: `override_compiler` if non-empty, else $MANTICORE_AOT_CXX,
 *  else c++ / g++ / clang++. */
const AotToolchain &aotToolchain(const std::string &override_compiler = "");

/** Resolved object-cache directory for the given options (see file
 *  header for the resolution order).  Exposed for benches/tests. */
std::string aotResolveCacheDir(const EvalOptions &options);

/** Host CPU model string folded into every object-cache key (from
 *  /proc/cpuinfo, else the machine architecture), memoized.
 *  Exposed for tests and cache diagnostics. */
const std::string &aotHostCpuModel();

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_AOT_HH
