/**
 * @file
 * Shared pieces of the benchmark worker: the host-time span recorder,
 * the per-process report, and the three workload entry points.
 *
 * Spans are recorded only from the worker's own code, around each call
 * it makes into a simulator layer's public API, so the simulator is
 * measured exactly as shipped. With tracing off a Scope costs one
 * predictable branch.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One closed interval of host time. */
struct Span
{
    const char *name;
    std::uint64_t startNs;
    std::uint64_t endNs;
    std::int32_t parent; //!< index into spans, -1 = none
    std::uint64_t req;   //!< request id, 0 = none
    bool async;          //!< outside the call tree (request lifetimes)
};

/** In-memory span store; written out once the workload ends. */
class Tracer
{
  public:
    static Tracer &get();

    bool on = false;
    std::vector<Span> spans;

    std::int32_t
    open(const char *name, std::uint64_t req)
    {
        spans.push_back({name, nowNs(), 0, current_, req, false});
        current_ = static_cast<std::int32_t>(spans.size() - 1);
        return current_;
    }

    void
    close(std::int32_t id)
    {
        spans[id].endNs = nowNs();
        current_ = spans[id].parent;
    }

    /** A request's life from submit to its completion callback. */
    void
    async(const char *name, std::uint64_t startNs, std::uint64_t req)
    {
        spans.push_back({name, startNs, nowNs(), -1, req, true});
    }

  private:
    std::int32_t current_ = -1;
};

/** RAII span around one call into a layer. */
class Scope
{
  public:
    explicit Scope(const char *name, std::uint64_t req = 0)
    {
        Tracer &t = Tracer::get();
        if (t.on)
            id_ = t.open(name, req);
    }
    ~Scope()
    {
        if (id_ >= 0)
            Tracer::get().close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::int32_t id_ = -1;
};

/** Accumulates host seconds of one benchmark phase. */
class Stopwatch
{
  public:
    void start() { t0_ = nowNs(); }
    void stop() { totalNs_ += nowNs() - t0_; }
    double seconds() const { return static_cast<double>(totalNs_) / 1e9; }

  private:
    std::uint64_t t0_ = 0;
    std::uint64_t totalNs_ = 0;
};

/** Everything one workload process measured and checked. */
struct Report
{
    Stopwatch setup;    //!< construct, seed, map, prime
    Stopwatch measured; //!< the workload proper (wall_s)

    std::uint64_t events = 0; //!< events executed while measured
    double simSeconds = 0.0;  //!< simulated time covered while measured

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string opBase; //!< what one attempted operation is
    std::vector<std::string> failures;

    std::uint64_t submitted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t terminal = 0; //!< operations that reached an outcome
    std::string latencyKind;
    std::vector<double> simLatencyUs;

    /** prim_timing only: BaseDHP over Base (0 = not measured). */
    double xferSpeedup = 0.0;
    double energyGain = 0.0;
    double e2eSpeedup = 0.0;

    /** Determinism digest. */
    std::uint64_t digestEvents = 0;
    std::uint64_t digestSimPs = 0;
    std::uint64_t memFnv = 0;
    std::uint64_t statsFnv = 0;

    /** Layer facts read after the run. */
    std::uint64_t storePages = 0;
    std::uint64_t mramTouchedBytes = 0;
    std::uint64_t scrubPasses = 0;
    std::uint64_t healthyDpusMin = 0;
    std::uint64_t checkpointBytes = 0;

    /** Traced runs only: stats-registry snapshots (one JSON object per
     *  group) taken around every setup segment and at the end. */
    std::vector<std::pair<std::vector<std::string>,
                          std::vector<std::string>>>
        setupStats;
    std::vector<std::string> finalStats;

    /** Count one checked operation. @return @p ok. */
    bool
    check(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
        return ok;
    }

    /** Keep the first few failure reasons for the report. */
    void
    fail(const std::string &why)
    {
        if (failures.size() < 16)
            failures.push_back(why);
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!check(ok))
            fail(what);
    }
};

/** Registry snapshot (traced runs only; empty otherwise). */
std::vector<std::string> statsSnapshot();

/** Brackets one setup segment: times it and, when tracing, records
 *  the registry before and after so counts can exclude set-up. */
class SetupPhase
{
  public:
    explicit SetupPhase(Report &r);
    ~SetupPhase();
    SetupPhase(const SetupPhase &) = delete;
    SetupPhase &operator=(const SetupPhase &) = delete;

  private:
    Report &r_;
    std::vector<std::string> before_;
};

/** Deterministic payload byte for (seed, dpu, offset). */
inline std::uint8_t
payloadByte(std::uint64_t seed, unsigned dpu, std::uint64_t off)
{
    std::uint64_t x = seed ^ (std::uint64_t{dpu} << 32) ^ (off >> 3);
    x *= 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    return static_cast<std::uint8_t>(x >> (8 * (off & 7)));
}

void runPrimTiming(std::uint64_t seed, Report &r);
void runSoakFf(std::uint64_t seed, const std::string &workDir,
               Report &r);
void runServeChaos(std::uint64_t seed, Report &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
