/**
 * @file
 * soak_ff: the fig_soak shape at benchmark scale. Four tenants submit
 * VA-addressed 8 DPU x 4 KiB requests (alternating DRAM->PIM and
 * PIM->DRAM) as an open-loop Poisson stream in simulated time, on the
 * FastForward plane under Policy::withRetryAndMask. Every window ends
 * with a drained queue and a checkpoint::save; after the middle window
 * the System and Server are destroyed and restored from the snapshot
 * into fresh ones, and the round trip must reproduce the pre-crash
 * clock, event count, memory image and stats exactly.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hh"
#include "checkpoint/checkpoint.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "mmu/tenant_context.hh"
#include "resilience/crc.hh"
#include "serving/load_gen.hh"
#include "serving/serving.hh"
#include "sim/system.hh"
#include "telemetry/stats_registry.hh"

namespace perfbench {
namespace {

using namespace pimmmu;

constexpr unsigned kTenants = 4;
constexpr unsigned kDpusPerReq = 8;
constexpr std::uint64_t kBytesPerDpu = 4 * kKiB;
constexpr std::uint64_t kReqBytes = kDpusPerReq * kBytesPerDpu;
constexpr double kRatePerSec = 1.0e4;
constexpr Tick kHorizonPs = Tick{400} * kPsPerMs;
constexpr unsigned kWindows = 4;
constexpr unsigned kCrashAfter = kWindows / 2; //!< one mid-run crash

/** Machine state that must survive a checkpoint round trip. */
struct Identity
{
    Tick now = 0;
    std::uint64_t executed = 0;
    std::uint64_t memFnv = 0;
    std::uint64_t statsFnv = 0;

    bool operator==(const Identity &) const = default;
};

struct Harness
{
    serving::ServerConfig scfg;
    std::unique_ptr<sim::System> sys;
    std::unique_ptr<serving::Server> server;

    struct Window
    {
        Addr srcPa = 0, dstPa = 0;
        Addr srcVa = 0, dstVa = 0, heapVa = 0;
    };
    std::vector<Window> win;
    std::vector<std::uint32_t> golden; //!< per-DPU payload CRC

    Harness()
    {
        scfg.maxQueued = 1024;
        scfg.maxInflight = 8;
    }

    /** Fresh System + Server; tenants come from setUp() or restore(). */
    void
    rebuild()
    {
        server.reset();
        sys.reset();
        // A restored run must not carry the dead System's retired
        // stats, or the stats digest would count them twice.
        telemetry::StatsRegistry::global().clear();
        Scope s("sim.ctor");
        sim::SystemConfig cfg =
            sim::SystemConfig::paperTable1(sim::DesignPoint::BaseDHP);
        cfg.resilience = resilience::Policy::withRetryAndMask();
        sys = std::make_unique<sim::System>(cfg);
        server = std::make_unique<serving::Server>(*sys, scfg);
    }

    void
    setUp(std::uint64_t seed, Report &r)
    {
        golden.resize(kTenants * kDpusPerReq);
        const std::uint64_t winBytes =
            (kReqBytes + mmu::kPageBytes - 1) / mmu::kPageBytes *
            mmu::kPageBytes;
        for (unsigned t = 0; t < kTenants; ++t) {
            serving::TenantConfig tc;
            tc.name = "tenant" + std::to_string(t);
            const serving::TenantHandle h = server->addTenant(tc);
            Window w;
            w.srcPa = sys->allocDram(winBytes, mmu::kPageBytes);
            w.dstPa = sys->allocDram(winBytes, mmu::kPageBytes);
            mmu::TenantContext &ctx = server->tenantContext(h);
            {
                Scope s("mmu.map");
                r.check(ctx.mapWindow(mapping::MemSpace::Dram, w.srcPa,
                                      winBytes, w.srcVa)
                                .ok() &&
                            ctx.mapWindow(mapping::MemSpace::Dram,
                                          w.dstPa, winBytes, w.dstVa)
                                .ok() &&
                            ctx.mapWindow(mapping::MemSpace::Pim,
                                          std::uint64_t{h} *
                                              mmu::kPageBytes,
                                          mmu::kPageBytes, w.heapVa)
                                .ok(),
                        "tenant map");
            }
            win.push_back(w);

            std::vector<std::uint8_t> buf(kBytesPerDpu);
            for (unsigned i = 0; i < kDpusPerReq; ++i) {
                const unsigned d = t * kDpusPerReq + i;
                for (std::uint64_t b = 0; b < kBytesPerDpu; ++b)
                    buf[b] = payloadByte(seed, d, b);
                Scope s("dram.store_seed");
                sys->mem().store().write(w.srcPa + i * kBytesPerDpu,
                                         buf.data(), buf.size());
                golden[d] = resilience::crc32c(buf.data(), buf.size());
            }
        }

        // Prime each tenant's MRAM slice so PIM->DRAM requests return
        // golden from the first arrival on (timing plane, physical).
        for (unsigned t = 0; t < kTenants; ++t) {
            core::PimMmuOp op;
            op.type = core::XferDirection::DramToPim;
            op.sizePerPim = kBytesPerDpu;
            op.pimBaseHeapPtr = std::uint64_t{t} * mmu::kPageBytes;
            for (unsigned i = 0; i < kDpusPerReq; ++i) {
                op.pimIdArr.push_back(t * kDpusPerReq + i);
                op.dramAddrArr.push_back(win[t].srcPa + i * kBytesPerDpu);
            }
            Scope s("sim.prime");
            r.check(sys->runTransfer(op).ok(), "prime transfer");
        }
        sys->setPlane(sim::Plane::FastForward);
    }

    serving::Request
    makeReq(unsigned t, std::uint64_t seq) const
    {
        serving::Request req;
        req.dir = (seq % 2 == 0) ? core::XferDirection::DramToPim
                                 : core::XferDirection::PimToDram;
        req.sizePerPim = kBytesPerDpu;
        req.pimHeapVa = win[t].heapVa;
        req.tag = seq;
        const Addr host = (req.dir == core::XferDirection::DramToPim)
                              ? win[t].srcVa
                              : win[t].dstVa;
        for (unsigned i = 0; i < kDpusPerReq; ++i) {
            req.dpus.push_back(t * kDpusPerReq + i);
            req.dramVa.push_back(host + i * kBytesPerDpu);
        }
        return req;
    }

    Identity
    identity() const
    {
        Scope s("sim.fingerprint");
        return {sys->eq().now(), sys->eq().executed(),
                sys->memoryFingerprint(), checkpoint::statsFingerprint()};
    }
};

} // namespace

void
runSoakFf(std::uint64_t seed, const std::string &workDir, Report &r)
{
    r.opBase = "requests (delivered, PIM->DRAM payload CRC-clean) + "
               "tenant maps + prime transfers + checkpoint saves + the "
               "restore round trip + the final ledger check";
    r.latencyKind = "arrival to the checkpoint that makes the request "
                    "durable (delivery itself takes no simulated time "
                    "on the FastForward plane)";
    const std::string ckpt =
        workDir + "/soak_ff-" + std::to_string(seed) + ".ckpt";

    Rng rng(seed);
    const std::vector<serving::Arrival> plan = serving::poissonPlan(
        rng, kRatePerSec, kHorizonPs,
        std::vector<double>(kTenants, 1.0));

    Harness h;
    {
        SetupPhase phase(r);
        h.rebuild();
        h.setUp(seed, r);
    }

    // Window w owns arrivals in [w, w+1) * horizon / windows.
    std::vector<std::size_t> windowEnd(kWindows, plan.size());
    for (unsigned w = 0; w + 1 < kWindows; ++w) {
        const Tick end = kHorizonPs / kWindows * (w + 1);
        windowEnd[w] = static_cast<std::size_t>(
            std::lower_bound(plan.begin(), plan.end(), end,
                             [](const serving::Arrival &a, Tick t) {
                                 return a.atPs < t;
                             }) -
            plan.begin());
    }

    std::vector<std::uint64_t> submitNs(plan.size());
    std::vector<Tick> undurable; //!< submit times awaiting a checkpoint
    std::vector<std::uint8_t> buf(kBytesPerDpu);
    auto onDone = [&](const serving::Result &res) {
        if (Tracer::get().on)
            Tracer::get().async("serving.request", submitNs[res.tag],
                                res.tag + 1);
        ++r.terminal;
        bool ok = res.outcome == serving::Outcome::Delivered;
        if (ok) {
            ++r.delivered;
            undurable.push_back(res.submitPs);
        }
        if (ok && res.tag % 2 == 1) {
            const auto t = static_cast<unsigned>(res.tenant);
            for (unsigned i = 0; i < kDpusPerReq; ++i) {
                {
                    Scope s("dram.store_read");
                    h.sys->mem().store().read(
                        h.win[t].dstPa + i * kBytesPerDpu, buf.data(),
                        buf.size());
                }
                Scope s("resilience.verify_crc");
                ok = ok && resilience::crc32c(buf.data(), buf.size()) ==
                               h.golden[t * kDpusPerReq + i];
            }
        }
        if (!r.check(ok))
            r.fail("request " + std::to_string(res.tag) + " " +
                   serving::outcomeName(res.outcome) + " " +
                   res.status.str());
    };

    r.measured.start();
    const Tick t0 = h.sys->eq().now();
    const std::uint64_t e0 = h.sys->eq().executed();
    std::size_t next = 0;
    for (unsigned w = 0; w < kWindows; ++w) {
        for (; next < windowEnd[w]; ++next) {
            const serving::Arrival a = plan[next];
            h.sys->eq().schedule(t0 + a.atPs, [&, a] {
                ++r.submitted;
                submitNs[a.seq] = nowNs();
                Scope s("serving.submit", a.seq + 1);
                h.server->submit(
                    a.tenant, h.makeReq(static_cast<unsigned>(a.tenant),
                                        a.seq),
                    onDone);
            });
        }
        bool drained;
        {
            Scope s("sim.event_loop");
            drained = h.sys->eq().run();
        }
        r.check(drained && h.server->idle(),
                "window " + std::to_string(w) + " drained");

        serialize::ByteSink cursor;
        cursor.u64(w + 1);
        resilience::Status st;
        {
            Scope s("checkpoint.save");
            st = checkpoint::save(*h.sys, h.server.get(), cursor.data(),
                                  ckpt);
        }
        r.check(st.ok(), "checkpoint save: " + st.str());
        std::error_code ec;
        r.checkpointBytes = std::filesystem::file_size(ckpt, ec);
        for (const Tick submitPs : undurable)
            r.simLatencyUs.push_back(
                static_cast<double>(h.sys->eq().now() - submitPs) / 1e6);
        undurable.clear();

        if (w + 1 == kCrashAfter) {
            const Identity before = h.identity();
            h.rebuild();
            std::vector<std::uint8_t> blob;
            {
                Scope s("checkpoint.restore");
                st = checkpoint::restore(*h.sys, h.server.get(), &blob,
                                         ckpt);
            }
            serialize::ByteSource src(blob.data(), blob.size());
            r.check(st.ok() && src.u64() == w + 1 &&
                        h.identity() == before,
                    "restore round trip: " + st.str());
        }
    }
    std::string why;
    r.check(h.server->checkConservation(&why) && h.server->idle() &&
                h.server->totals().submitted == plan.size() &&
                h.server->totals().delivered == plan.size(),
            "ledger: " + why);
    r.events = h.sys->eq().executed() - e0;
    r.simSeconds = static_cast<double>(h.sys->eq().now() - t0) / 1e12;
    r.measured.stop();
    std::remove(ckpt.c_str());

    const Identity end = h.identity();
    r.digestEvents = end.executed;
    r.digestSimPs = end.now;
    r.memFnv = end.memFnv;
    r.statsFnv = end.statsFnv;
    r.storePages = h.sys->mem().store().allocatedPages();
    for (unsigned d = 0; d < h.sys->pim().numDpus(); ++d)
        r.mramTouchedBytes += h.sys->pim().dpu(d).mramTouchedBytes();
    const resilience::Manager *mgr = h.sys->resilienceManager();
    r.healthyDpusMin = mgr ? mgr->healthyDpus() : 0;
}

} // namespace perfbench
