/**
 * @file
 * serve_chaos: the fig_serving "high" cell. Four tenants of 64 DPUs
 * each submit VA-addressed requests (alternating DRAM->PIM and
 * PIM->DRAM) as an open-loop Poisson stream at 1.5e6/s in simulated
 * time, past saturation, on the Timing plane with 150 us deadlines.
 * Under Policy::withRepair, ecc.flip_single_bit is armed at a fixed
 * rate and domain.kill_rank fires once, at a seeded instant on a seeded
 * tenant DPU, so exactly one rank dies per run; scrub passes interleave
 * with the event loop until the rank is re-admitted. Every delivered
 * PIM->DRAM payload is CRC-checked against golden.
 */

#include <algorithm>
#include <memory>

#include "bench.hh"
#include "checkpoint/checkpoint.hh"
#include "common/random.hh"
#include "mmu/tenant_context.hh"
#include "resilience/crc.hh"
#include "serving/load_gen.hh"
#include "serving/serving.hh"
#include "sim/system.hh"
#include "testing/fault_injection.hh"

namespace perfbench {
namespace {

using namespace pimmmu;

constexpr unsigned kTenants = 4;
constexpr unsigned kDpusPerTenant = 64; //!< one Table I rank each
constexpr unsigned kNumDpus = kTenants * kDpusPerTenant;
constexpr std::uint64_t kSizePerPim = 512;
constexpr std::uint64_t kSliceBytes = kDpusPerTenant * kSizePerPim;
constexpr double kRatePerSec = 1.5e6;
constexpr Tick kHorizonPs = Tick{2000} * kPsPerUs;
constexpr Tick kDeadlinePs = Tick{150} * kPsPerUs;
constexpr double kFlipRate = 1e-4;
constexpr unsigned kScrubCap = 4000;
constexpr std::uint64_t kPlanSeed = 0x5e7c4a05ull;

} // namespace

void
runServeChaos(std::uint64_t seed, Report &r)
{
    namespace fault = testing::fault;
    r.opBase = "requests (terminal, delivered PIM->DRAM payload "
               "CRC-clean) + tenant maps + prime transfers + the rank "
               "kill and scrub firing + the final ledger check";
    r.latencyKind = "submit to delivery, delivered requests";
    fault::disarmAll();

    std::unique_ptr<sim::System> sys;
    std::unique_ptr<serving::Server> server;
    Addr src = 0, dst = 0;
    std::vector<std::uint32_t> golden(kNumDpus);
    std::vector<Addr> srcVa(kTenants), dstVa(kTenants), heapVa(kTenants);
    {
        SetupPhase phase(r);
        {
            Scope s("sim.ctor");
            sim::SystemConfig cfg =
                sim::SystemConfig::paperTable1(sim::DesignPoint::BaseDHP);
            cfg.resilience = resilience::Policy::withRepair();
            sys = std::make_unique<sim::System>(cfg);
        }
        src = sys->allocDram(kNumDpus * kSizePerPim, mmu::kPageBytes);
        dst = sys->allocDram(kNumDpus * kSizePerPim, mmu::kPageBytes);
        std::vector<std::uint8_t> buf(kSizePerPim);
        for (unsigned d = 0; d < kNumDpus; ++d) {
            for (std::uint64_t b = 0; b < kSizePerPim; ++b)
                buf[b] = payloadByte(seed, d, b);
            Scope s("dram.store_seed");
            sys->mem().store().write(src + d * kSizePerPim, buf.data(),
                                     kSizePerPim);
            golden[d] = resilience::crc32c(buf.data(), kSizePerPim);
        }
        // Prime every tenant's MRAM slice with golden (physical ops,
        // nothing armed yet) so PIM->DRAM requests have data to return.
        for (unsigned t = 0; t < kTenants; ++t) {
            core::PimMmuOp op;
            op.type = core::XferDirection::DramToPim;
            op.sizePerPim = kSizePerPim;
            op.pimBaseHeapPtr = std::uint64_t{t} * mmu::kPageBytes;
            for (unsigned i = 0; i < kDpusPerTenant; ++i) {
                const unsigned d = t * kDpusPerTenant + i;
                op.pimIdArr.push_back(d);
                op.dramAddrArr.push_back(src + d * kSizePerPim);
            }
            Scope s("sim.prime");
            r.check(sys->runTransfer(op).ok(), "prime transfer");
        }

        serving::ServerConfig scfg;
        scfg.maxQueued = 32;
        scfg.maxInflight = 4;
        scfg.retriesPerRequest = 5;
        scfg.retryBackoffPs = 5 * kPsPerUs;
        scfg.retryBurst = 32.0;
        scfg.retryPerSecond = 2.0e5;
        scfg.quantumBytes = kSliceBytes;
        server = std::make_unique<serving::Server>(*sys, scfg);
        for (unsigned t = 0; t < kTenants; ++t) {
            serving::TenantConfig tc;
            tc.name = "tenant" + std::to_string(t);
            tc.weight = 1;
            tc.priority = 1;
            mmu::TenantContext &ctx =
                server->tenantContext(server->addTenant(tc));
            Scope s("mmu.map");
            r.check(ctx.mapWindow(mapping::MemSpace::Dram,
                                  src + t * kSliceBytes, kSliceBytes,
                                  srcVa[t])
                            .ok() &&
                        ctx.mapWindow(mapping::MemSpace::Dram,
                                      dst + t * kSliceBytes, kSliceBytes,
                                      dstVa[t])
                            .ok() &&
                        ctx.mapWindow(mapping::MemSpace::Pim,
                                      std::uint64_t{t} * mmu::kPageBytes,
                                      mmu::kPageBytes, heapVa[t])
                            .ok(),
                    "tenant map");
        }
    }

    // The arrival plan comes from a fixed stream, like fig_serving's
    // per-scenario seed: past saturation the median latency moves by a
    // fifth between Poisson draws. The seed picks the payloads, the
    // ECC-flip stream, and when and where the rank kill lands.
    Rng planRng(kPlanSeed);
    const std::vector<serving::Arrival> plan = serving::poissonPlan(
        planRng, kRatePerSec, kHorizonPs,
        std::vector<double>(kTenants, 1.0));
    Rng rng(seed);
    const Tick killAt =
        kHorizonPs / 4 + rng.below(kHorizonPs / 4 / kPsPerNs) * kPsPerNs;
    const auto victim = static_cast<unsigned>(rng.below(kNumDpus));

    std::vector<std::uint64_t> submitNs(plan.size());
    std::vector<std::uint8_t> buf(kSizePerPim);
    auto onDone = [&](const serving::Result &res) {
        if (Tracer::get().on)
            Tracer::get().async("serving.request", submitNs[res.tag],
                                res.tag + 1);
        ++r.terminal;
        bool ok = res.outcome != serving::Outcome::Pending;
        if (res.outcome == serving::Outcome::Delivered) {
            ++r.delivered;
            r.simLatencyUs.push_back(
                static_cast<double>(res.endPs - res.submitPs) / 1e6);
            if (res.tag % 2 == 1) {
                const auto t = static_cast<unsigned>(res.tenant);
                for (unsigned i = 0; i < kDpusPerTenant; ++i) {
                    const unsigned d = t * kDpusPerTenant + i;
                    {
                        Scope s("dram.store_read");
                        sys->mem().store().read(dst + d * kSizePerPim,
                                                buf.data(), kSizePerPim);
                    }
                    Scope s("resilience.verify_crc");
                    ok = ok && resilience::crc32c(buf.data(),
                                                  kSizePerPim) ==
                                   golden[d];
                }
            }
        }
        if (!r.check(ok))
            r.fail("request " + std::to_string(res.tag) + " " +
                   serving::outcomeName(res.outcome) + " " +
                   res.status.str());
    };

    r.measured.start();
    const Tick t0 = sys->eq().now();
    const std::uint64_t e0 = sys->eq().executed();
    std::size_t fired = 0;
    for (const serving::Arrival &a : plan) {
        sys->eq().schedule(t0 + a.atPs, [&, a] {
            ++fired;
            ++r.submitted;
            serving::Request req;
            const auto t = static_cast<unsigned>(a.tenant);
            req.dir = (a.seq % 2 == 0) ? core::XferDirection::DramToPim
                                       : core::XferDirection::PimToDram;
            req.sizePerPim = kSizePerPim;
            req.pimHeapVa = heapVa[t];
            req.deadlinePs = sys->eq().now() + kDeadlinePs;
            req.tag = a.seq;
            const Addr hostVa = req.dir == core::XferDirection::DramToPim
                                    ? srcVa[t]
                                    : dstVa[t];
            for (unsigned i = 0; i < kDpusPerTenant; ++i) {
                req.dpus.push_back(t * kDpusPerTenant + i);
                req.dramVa.push_back(hostVa + i * kSizePerPim);
            }
            submitNs[a.seq] = nowNs();
            Scope s("serving.submit", a.seq + 1);
            server->submit(a.tenant, std::move(req), onDone);
        });
    }
    fault::armRate("ecc.flip_single_bit", kFlipRate, seed ^ 0xa1);
    resilience::Manager *mgr = sys->resilienceManager();
    std::uint64_t kills = 0;
    sys->eq().schedule(t0 + killAt, [&, victim] {
        // Probe the kill site for one tenant DPU with the site armed
        // to fire: exactly that DPU's rank dies.
        fault::armRate("domain.kill_rank", 1.0, seed ^ 0xe5);
        mgr->probeKillSites({victim}, sys->eq().now());
        kills = fault::count("domain.kill_rank");
        fault::armRate("domain.kill_rank", 0.0, 0);
    });

    // Run until every arrival fired and the server drained, stopping
    // whenever banks are out of service so a scrub pass can probe and
    // re-admit them (runScrub drives the event loop itself).
    r.healthyDpusMin = mgr->healthyDpus();
    const Tick limit = t0 + kHorizonPs + Tick{20} * kPsPerMs;
    bool scrubEnabled = true;
    auto allDone = [&] { return fired == plan.size() && server->idle(); };
    while (!allDone() && sys->eq().now() < limit) {
        {
            Scope s("sim.event_loop");
            sys->runUntil(
                [&] {
                    return allDone() ||
                           (scrubEnabled && mgr->maskedBanks() > 0);
                },
                limit);
        }
        r.healthyDpusMin =
            std::min<std::uint64_t>(r.healthyDpusMin, mgr->healthyDpus());
        if (allDone() || sys->eq().now() >= limit)
            break;
        if (!scrubEnabled || mgr->maskedBanks() == 0)
            break; // queue drained with work outstanding: stuck
        sim::ScrubReport rep;
        {
            Scope s("sim.scrub");
            rep = sys->runScrub();
        }
        ++r.scrubPasses;
        // An idle pass with banks still masked would spin without
        // advancing time; stop scrubbing rather than livelock.
        if (rep.idle() || r.scrubPasses >= kScrubCap)
            scrubEnabled = false;
    }
    fault::disarmAll();
    r.check(kills == 1 && r.scrubPasses > 0 &&
                mgr->stats().counterValue("probe_transfers") > 0,
            "rank kill and scrub probes fired");
    std::string why;
    r.check(server->checkConservation(&why) && server->idle() &&
                fired == plan.size(),
            "ledger: " + why);
    r.events = sys->eq().executed() - e0;
    r.simSeconds = static_cast<double>(sys->eq().now() - t0) / 1e12;
    r.measured.stop();

    {
        Scope s("sim.fingerprint");
        r.memFnv = sys->memoryFingerprint();
        r.statsFnv = checkpoint::statsFingerprint();
    }
    r.digestEvents = sys->eq().executed();
    r.digestSimPs = sys->eq().now();
    r.storePages = sys->mem().store().allocatedPages();
    for (unsigned d = 0; d < sys->pim().numDpus(); ++d)
        r.mramTouchedBytes += sys->pim().dpu(d).mramTouchedBytes();
}

} // namespace perfbench
