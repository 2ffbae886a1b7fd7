/**
 * @file
 * Benchmark worker: runs one workload once in this process and writes
 * what it measured and checked as JSON. perfbench/run.py launches one
 * worker process per repetition and turns the reports into metrics.
 *
 *   perfbench_worker --workload <prim_timing|soak_ff|serve_chaos>
 *                    --seed <n> --out <report.json>
 *                    [--trace <spans.json>] [--work-dir <dir>]
 *
 * --trace records host-time spans around every call the worker makes
 * into a simulator layer, plus stats-registry snapshots, and writes the
 * spans to the given file. Exit code 0 means the report was written;
 * correctness verdicts are in the report.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hh"
#include "telemetry/stats_registry.hh"

namespace perfbench {

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

std::vector<std::string>
statsSnapshot()
{
    if (!Tracer::get().on)
        return {};
    return pimmmu::telemetry::StatsRegistry::global().groupJsons();
}

SetupPhase::SetupPhase(Report &r) : r_(r), before_(statsSnapshot())
{
    r_.setup.start();
}

SetupPhase::~SetupPhase()
{
    r_.setup.stop();
    if (Tracer::get().on)
        r_.setupStats.emplace_back(std::move(before_), statsSnapshot());
}

} // namespace perfbench

namespace {

using perfbench::Report;

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
writeGroups(std::ostream &os, const std::vector<std::string> &groups)
{
    os << "[";
    for (std::size_t i = 0; i < groups.size(); ++i)
        os << (i ? ",\n" : "\n") << groups[i];
    os << "]";
}

bool
writeReport(const std::string &path, const std::string &workload,
            std::uint64_t seed, const Report &r, double peakRssMb)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os.precision(17);
    os << "{\"workload\": " << quote(workload) << ", \"seed\": " << seed
       << ",\n \"setup_s\": " << r.setup.seconds()
       << ", \"wall_s\": " << r.measured.seconds()
       << ", \"peak_rss_mb\": " << peakRssMb
       << ",\n \"events\": " << r.events
       << ", \"sim_seconds\": " << r.simSeconds
       << ",\n \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed
       << ", \"op_base\": " << quote(r.opBase) << ", \"failures\": [";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        os << (i ? ", " : "") << quote(r.failures[i]);
    os << "],\n \"submitted\": " << r.submitted
       << ", \"delivered\": " << r.delivered
       << ", \"terminal\": " << r.terminal
       << ", \"latency_kind\": " << quote(r.latencyKind)
       << ",\n \"sim_latency_us\": [";
    for (std::size_t i = 0; i < r.simLatencyUs.size(); ++i)
        os << (i ? ", " : "") << r.simLatencyUs[i];
    os << "],\n \"xfer_speedup\": " << r.xferSpeedup
       << ", \"energy_gain\": " << r.energyGain
       << ", \"e2e_speedup\": " << r.e2eSpeedup
       << ",\n \"digest\": {\"events\": " << r.digestEvents
       << ", \"sim_ps\": " << r.digestSimPs
       << ", \"memory_fnv\": \"" << std::hex << r.memFnv
       << "\", \"stats_fnv\": \"" << r.statsFnv << std::dec << "\"}"
       << ",\n \"store_pages\": " << r.storePages
       << ", \"mram_touched_bytes\": " << r.mramTouchedBytes
       << ", \"scrub_passes\": " << r.scrubPasses
       << ", \"healthy_dpus_min\": " << r.healthyDpusMin
       << ", \"checkpoint_bytes\": " << r.checkpointBytes;
    if (perfbench::Tracer::get().on) {
        os << ",\n \"setup_stats\": [";
        for (std::size_t i = 0; i < r.setupStats.size(); ++i) {
            os << (i ? ",\n" : "\n") << "{\"before\": ";
            writeGroups(os, r.setupStats[i].first);
            os << ", \"after\": ";
            writeGroups(os, r.setupStats[i].second);
            os << "}";
        }
        os << "],\n \"final_stats\": ";
        writeGroups(os, r.finalStats);
    }
    os << "}\n";
    return static_cast<bool>(os);
}

bool
writeSpans(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
          "\"req\", \"async\"],\n \"spans\": [";
    const auto &spans = perfbench::Tracer::get().spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const perfbench::Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "[\"" << s.name << "\", "
           << s.startNs << ", " << s.endNs << ", " << s.parent << ", "
           << s.req << ", " << (s.async ? 1 : 0) << "]";
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <prim_timing|soak_ff|serve_chaos> "
                 "--seed <n> --out <report.json> [--trace <spans.json>] "
                 "[--work-dir <dir>]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, outPath, spansPath, workDir = ".";
    std::uint64_t seed = 0;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const bool more = i + 1 < argc;
        if (std::strcmp(argv[i], "--workload") == 0 && more) {
            workload = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 && more) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            haveSeed = end != nullptr && *end == '\0';
        } else if (std::strcmp(argv[i], "--out") == 0 && more) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 && more) {
            spansPath = argv[++i];
        } else if (std::strcmp(argv[i], "--work-dir") == 0 && more) {
            workDir = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    if (!haveSeed || outPath.empty())
        return usage(argv[0]);

    // A fixed mmap threshold turns off glibc's sliding one, which made
    // peak_rss_mb depend on the order in which multi-MB snapshot
    // buffers happened to be freed.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    perfbench::Tracer::get().on = !spansPath.empty();
    Report r;
    {
        perfbench::Scope root("workload");
        if (workload == "prim_timing")
            perfbench::runPrimTiming(seed, r);
        else if (workload == "soak_ff")
            perfbench::runSoakFf(seed, workDir, r);
        else if (workload == "serve_chaos")
            perfbench::runServeChaos(seed, r);
        else
            return usage(argv[0]);
    }
    r.finalStats = perfbench::statsSnapshot();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    if (!spansPath.empty() && !writeSpans(spansPath)) {
        std::fprintf(stderr, "cannot write %s\n", spansPath.c_str());
        return 1;
    }
    if (!writeReport(outPath, workload, seed, r, peakRssMb)) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    return 0;
}
