#include "runtime/replay.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "designs/designs.hh"
#include "engine/adapters.hh"
#include "engine/registry.hh"
#include "engine/snapshot.hh"
#include "netlist/builder.hh"
#include "support/hashing.hh"
#include "support/logging.hh"

namespace manticore::runtime {

namespace {

// ---- hex (de)serialization of BitVector values ----------------------

std::string
hexOf(const BitVector &value)
{
    // Fixed width: ceil(width/4) digits, MSB first, so the artifact
    // is byte-stable for a given (width, value).
    static const char digits[] = "0123456789abcdef";
    unsigned ndigits = (value.width() + 3) / 4;
    if (ndigits == 0)
        ndigits = 1;
    std::string out(ndigits, '0');
    const std::vector<uint64_t> &limbs = value.limbs();
    for (unsigned d = 0; d < ndigits; ++d) {
        unsigned bit = d * 4;
        unsigned limb = bit / 64;
        uint64_t nib =
            limb < limbs.size() ? (limbs[limb] >> (bit % 64)) & 0xf : 0;
        out[ndigits - 1 - d] = digits[nib];
    }
    return out;
}

BitVector
valueFromHex(unsigned width, const std::string &hex)
{
    std::vector<uint64_t> limbs((width + 63) / 64, 0);
    unsigned bit = 0;
    for (size_t i = hex.size(); i-- > 0 && bit < width; bit += 4) {
        char c = hex[i];
        uint64_t nib;
        if (c >= '0' && c <= '9')
            nib = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            nib = static_cast<uint64_t>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            nib = static_cast<uint64_t>(c - 'A') + 10;
        else
            MANTICORE_FATAL("replay: bad hex digit '", c, "' in \"",
                            hex, "\"");
        limbs[bit / 64] |= nib << (bit % 64);
    }
    return BitVector::fromLimbs(width, limbs);
}

uint64_t
parseHex64(const std::string &hex)
{
    uint64_t v = 0;
    for (char c : hex) {
        uint64_t nib;
        if (c >= '0' && c <= '9')
            nib = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            nib = static_cast<uint64_t>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            nib = static_cast<uint64_t>(c - 'A') + 10;
        else
            MANTICORE_FATAL("replay: bad hex digit '", c, "' in \"",
                            hex, "\"");
        v = (v << 4) | nib;
    }
    return v;
}

engine::Status
parseStatus(const std::string &name)
{
    if (name == "running")
        return engine::Status::Running;
    if (name == "finished")
        return engine::Status::Finished;
    if (name == "failed")
        return engine::Status::Failed;
    MANTICORE_FATAL("replay: bad status \"", name,
                    "\" (running/finished/failed)");
}

} // namespace

// ---- ReplayTrace ----------------------------------------------------

std::string
ReplayTrace::serialize() const
{
    std::ostringstream out;
    out << kMagic << "\n";
    out << "design " << designKind << " " << designArg << " "
        << designParam << "\n";
    out << "hash " << hashHex(designHash) << "\n";
    if (!engine.empty())
        out << "engine " << engine << "\n";
    out << "lanes " << lanes << "\n";
    for (const std::string &n : notes)
        out << "note " << n << "\n";
    for (const ReplayPoke &p : pokes)
        out << "poke " << p.cycle << " " << p.lane << " " << p.input
            << " " << p.value.width() << " " << hexOf(p.value) << "\n";
    out << "run " << runCycles << "\n";
    for (const ReplayExpect &e : expectations)
        out << "expect " << e.lane << " "
            << engine::statusName(e.status) << " " << e.cycle << " "
            << hashHex(e.digest) << "\n";
    out << "end\n";
    return out.str();
}

ReplayTrace
ReplayTrace::parse(const std::string &text)
{
    ReplayTrace trace;
    std::istringstream in(text);
    std::string line;
    bool saw_magic = false, saw_end = false;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Trim trailing CR (corpus files may cross platforms).
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        if (!saw_magic) {
            if (line != kMagic)
                MANTICORE_FATAL("replay: line ", lineno,
                                ": expected \"", kMagic, "\", got \"",
                                line, "\"");
            saw_magic = true;
            continue;
        }
        if (saw_end)
            MANTICORE_FATAL("replay: line ", lineno,
                            ": content after \"end\"");
        std::istringstream t(line);
        std::string key;
        t >> key;
        auto need = [&](bool ok) {
            if (!ok || t.fail())
                MANTICORE_FATAL("replay: line ", lineno,
                                ": malformed \"", line, "\"");
        };
        if (key == "design") {
            t >> trace.designKind >> trace.designArg >>
                trace.designParam;
            need(!trace.designKind.empty());
        } else if (key == "hash") {
            std::string hex;
            t >> hex;
            need(!hex.empty());
            trace.designHash = parseHex64(hex);
        } else if (key == "engine") {
            t >> trace.engine;
            need(!trace.engine.empty());
        } else if (key == "lanes") {
            t >> trace.lanes;
            need(trace.lanes >= 1);
        } else if (key == "note") {
            std::string rest;
            std::getline(t, rest);
            if (!rest.empty() && rest[0] == ' ')
                rest.erase(0, 1);
            trace.notes.push_back(rest);
        } else if (key == "poke") {
            ReplayPoke p;
            unsigned width = 0;
            std::string hex;
            t >> p.cycle >> p.lane >> p.input >> width >> hex;
            need(!p.input.empty() && width > 0 && !hex.empty());
            p.value = valueFromHex(width, hex);
            trace.pokes.push_back(std::move(p));
        } else if (key == "run") {
            t >> trace.runCycles;
            need(true);
        } else if (key == "expect") {
            ReplayExpect e;
            std::string status, hex;
            t >> e.lane >> status >> e.cycle >> hex;
            need(!status.empty() && !hex.empty());
            e.status = parseStatus(status);
            e.digest = parseHex64(hex);
            trace.expectations.push_back(e);
        } else if (key == "end") {
            saw_end = true;
        } else {
            MANTICORE_FATAL("replay: line ", lineno,
                            ": unknown directive \"", key, "\"");
        }
    }
    if (!saw_magic)
        MANTICORE_FATAL("replay: not a replay artifact (missing \"",
                        kMagic, "\" header)");
    if (!saw_end)
        MANTICORE_FATAL("replay: truncated artifact (missing \"end\")");
    // The runner applies pokes front-to-back as cycles advance.
    std::stable_sort(trace.pokes.begin(), trace.pokes.end(),
                     [](const ReplayPoke &a, const ReplayPoke &b) {
                         return a.cycle < b.cycle;
                     });
    return trace;
}

ReplayTrace
ReplayTrace::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        MANTICORE_FATAL("replay: cannot open ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
}

void
ReplayTrace::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        MANTICORE_FATAL("replay: cannot write ", path);
    out << serialize();
}

// ---- probe digests --------------------------------------------------

std::vector<ProbeSignal>
probeSignals(const netlist::Netlist &netlist)
{
    std::vector<std::string> names = engine::rtlRegisterNames(netlist);
    std::vector<ProbeSignal> signals(names.size());
    for (size_t r = 0; r < names.size(); ++r) {
        signals[r].name = std::move(names[r]);
        signals[r].width =
            netlist.reg(static_cast<netlist::RegId>(r)).width;
    }
    // Digest order is by probe name, not register id, so the digest
    // only depends on what is observable.
    std::sort(signals.begin(), signals.end(),
              [](const ProbeSignal &a, const ProbeSignal &b) {
                  return a.name < b.name;
              });
    return signals;
}

uint64_t
probeDigest(engine::Engine &engine, unsigned lane,
            const std::vector<ProbeSignal> &signals)
{
    uint64_t h = fnv1a64("manticore-probe-digest-v1");
    for (const ProbeSignal &s : signals) {
        engine::ProbeHandle handle = engine.probe(s.name);
        // Mask to the RTL width: ISA-level probes are chunk-padded.
        BitVector value = engine.readLane(handle, lane).resize(s.width);
        h = fnv1a64(s.name, h);
        uint64_t w = s.width;
        h = fnv1a64(&w, sizeof(w), h);
        for (uint64_t limb : value.limbs())
            h = fnv1a64(&limb, sizeof(limb), h);
    }
    return h;
}

// ---- design recipes -------------------------------------------------

netlist::Netlist
buildOpenCtr(unsigned width, uint64_t limit)
{
    MANTICORE_ASSERT(width >= 1 && width <= 64,
                     "openctr width must be 1..64, got ", width);
    netlist::CircuitBuilder b("openctr");
    netlist::Signal stop = b.input("stop", 1);
    netlist::Signal fault = b.input("fault", 1);
    netlist::RegHandle ctr = b.reg("ctr", width, 0);
    netlist::Signal one = b.lit(width, 1);
    b.next(ctr, b.mux(stop, ctr.read(), ctr.read() + one));
    b.assertAlways(b.lit(1, 1), !fault, "openctr: fault injected");
    b.finish(ctr.read() == b.lit(width, limit));
    return b.build();
}

netlist::Netlist
buildReplayDesign(const ReplayTrace &trace,
                  const RandomDesignBuilder &random_builder)
{
    netlist::Netlist netlist("empty");
    if (trace.designKind == "builtin") {
        const designs::Benchmark *found = nullptr;
        for (const designs::Benchmark &b : designs::allBenchmarks())
            if (b.name == trace.designArg)
                found = &b;
        if (!found)
            MANTICORE_FATAL("replay: unknown builtin design \"",
                            trace.designArg, "\"");
        uint64_t check = trace.designParam ? trace.designParam
                                           : found->defaultCheckCycles;
        netlist = found->build(check);
    } else if (trace.designKind == "openctr") {
        unsigned width =
            static_cast<unsigned>(std::stoul(trace.designArg));
        netlist = buildOpenCtr(width, trace.designParam);
    } else if (trace.designKind == "random") {
        if (!random_builder)
            MANTICORE_FATAL("replay: design kind \"random\" needs a "
                            "random-circuit builder (re-run through "
                            "replay_runner or a harness that links "
                            "tests/random_circuit.hh)");
        netlist = random_builder(std::stoull(trace.designArg));
    } else {
        MANTICORE_FATAL("replay: unknown design kind \"",
                        trace.designKind, "\"");
    }
    if (trace.designHash != 0) {
        uint64_t rebuilt = engine::designHash(netlist);
        if (rebuilt != trace.designHash)
            MANTICORE_FATAL(
                "replay: design drift — artifact was recorded against "
                "design hash ", hashHex(trace.designHash),
                ", the rebuilt \"", trace.designKind, " ",
                trace.designArg, "\" hashes ", hashHex(rebuilt),
                " (the artifact no longer reproduces this design)");
    }
    return netlist;
}

// ---- the runner -----------------------------------------------------

engine::CreateOptions
subjectOptions()
{
    engine::CreateOptions options;
    options.eval.numThreads = 2;
    options.eval.pinProcesses = true;
    return options;
}

ReplayResult
replayOn(const ReplayTrace &trace, const netlist::Netlist &netlist,
         const std::string &engine_name)
{
    ReplayResult result;
    const engine::EngineInfo *info = engine::find(engine_name);
    if (!info) {
        result.skipReason = "unknown engine";
        return result;
    }
    if (!info->available) {
        result.skipReason =
            "unavailable: " + info->availabilityNote;
        return result;
    }
    if (trace.lanes > 1 && !(info->caps & engine::cap::kEnsemble)) {
        result.skipReason = "no ensemble mode (trace has " +
                            std::to_string(trace.lanes) + " lanes)";
        return result;
    }
    if (!(info->caps & engine::cap::kInputs)) {
        // The ISA-level engines compile free inputs away, so any open
        // design (poked or not — an artifact may pin the behavior of
        // inputs left at their default) is out of reach for them.
        bool open = false;
        for (size_t i = 0; i < netlist.numNodes(); ++i)
            if (netlist.node(static_cast<netlist::NodeId>(i)).kind ==
                netlist::OpKind::Input)
                open = true;
        if (open) {
            result.skipReason =
                "no free inputs (design has open inputs)";
            return result;
        }
    }

    engine::CreateOptions options = subjectOptions();
    options.lanes = trace.lanes;
    std::unique_ptr<engine::Engine> eng =
        engine::create(engine_name, netlist, options);

    // Resolve every poked input once.
    std::vector<engine::InputHandle> handles(trace.pokes.size());
    for (size_t i = 0; i < trace.pokes.size(); ++i)
        handles[i] = eng->bindInput(trace.pokes[i].input);

    // Advance cycle by cycle, applying each cycle's pokes before the
    // step that consumes them (pokes are sorted by cycle).
    size_t next_poke = 0;
    while (eng->cycle() < trace.runCycles) {
        uint64_t c = eng->cycle();
        while (next_poke < trace.pokes.size() &&
               trace.pokes[next_poke].cycle <= c) {
            const ReplayPoke &p = trace.pokes[next_poke];
            engine::driveLane(*eng, handles[next_poke], p.lane,
                              p.value);
            ++next_poke;
        }
        if (eng->step(1).cycles == 0)
            break; // every lane terminal
    }

    result.ran = true;
    std::vector<ProbeSignal> signals = probeSignals(netlist);
    std::ostringstream detail;
    for (const ReplayExpect &e : trace.expectations) {
        if (e.lane >= eng->lanes()) {
            detail << "lane " << e.lane << ": engine has only "
                   << eng->lanes() << " lane(s); ";
            continue;
        }
        engine::Status status = eng->laneStatus(e.lane);
        uint64_t cycle = eng->laneCycle(e.lane);
        uint64_t digest = probeDigest(*eng, e.lane, signals);
        if (status != e.status)
            detail << "lane " << e.lane << ": status "
                   << engine::statusName(status) << ", expected "
                   << engine::statusName(e.status) << "; ";
        if (cycle != e.cycle)
            detail << "lane " << e.lane << ": cycle " << cycle
                   << ", expected " << e.cycle << "; ";
        if (digest != e.digest)
            detail << "lane " << e.lane << ": probe digest "
                   << hashHex(digest) << ", expected "
                   << hashHex(e.digest) << "; ";
    }
    result.detail = detail.str();
    result.passed = result.detail.empty();
    return result;
}

// ---- ReplayRecorder -------------------------------------------------

void
ReplayRecorder::poke(uint64_t cycle, unsigned lane,
                     const std::string &input, const BitVector &value)
{
    trace.pokes.push_back({cycle, lane, input, value});
}

void
ReplayRecorder::expectFrom(engine::Engine &golden, unsigned engine_lane,
                           unsigned artifact_lane)
{
    ReplayExpect e;
    e.lane = artifact_lane;
    e.status = golden.laneStatus(engine_lane);
    e.cycle = golden.laneCycle(engine_lane);
    e.digest = probeDigest(golden, engine_lane, signals);
    trace.expectations.push_back(e);
}

std::string
ReplayRecorder::write() const
{
    std::string out_dir = dir;
    if (out_dir.empty()) {
        if (const char *env = std::getenv("MANTICORE_REPLAY_DIR"))
            out_dir = env;
        else
            out_dir = "replay-artifacts";
    }
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec)
        MANTICORE_FATAL("replay: cannot create artifact directory ",
                        out_dir, ": ", ec.message());
    std::string text = trace.serialize();
    std::string path = out_dir + "/" + stem + "-" +
                       hashHex(fnv1a64(text)).substr(0, 8) + ".replay";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        MANTICORE_FATAL("replay: cannot write ", path);
    f << text;
    return path;
}

} // namespace manticore::runtime
