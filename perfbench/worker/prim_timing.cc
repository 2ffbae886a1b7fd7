/**
 * @file
 * prim_timing: one closed-loop caller on the Timing plane with 512
 * DPUs. For each PrIM workload of a subset that covers the suite's
 * distinct output sizes, at design points Base and BaseDHP: seed the
 * input payloads, run a DRAM->PIM then a PIM->DRAM transfer, and check
 * both by CRC against golden. Neither the MMU, the serving layer,
 * checkpointing nor the resilience guards are involved.
 */

#include <cmath>
#include <memory>

#include "bench.hh"
#include "checkpoint/checkpoint.hh"
#include "common/random.hh"
#include "resilience/crc.hh"
#include "sim/system.hh"
#include "workloads/prim.hh"

namespace perfbench {
namespace {

using namespace pimmmu;

constexpr unsigned kDpus = 512;

/** Output sizes per DPU: 8 KiB, 128 B, 4 KiB and 16 KiB. */
const char *const kSuite[] = {"VA", "GEMV", "BFS", "TRNS"};

struct Cell
{
    double xferPs = 0.0; //!< D2P + P2D simulated time
    double e2ePs = 0.0;  //!< D2P + analytic kernel + P2D
    double bytes = 0.0;
    double joules = 0.0;
};

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** True when every DPU's first @p bytes of host memory at @p base
 *  match @p golden. */
bool
hostMatches(sim::System &sys, Addr base, std::uint64_t bytes,
            const std::vector<std::uint32_t> &golden)
{
    std::vector<std::uint8_t> buf(bytes);
    bool ok = true;
    for (unsigned d = 0; d < kDpus; ++d) {
        {
            Scope s("dram.store_read");
            sys.mem().store().read(base + d * bytes, buf.data(), bytes);
        }
        Scope s("resilience.verify_crc");
        ok = ok && resilience::crc32c(buf.data(), bytes) == golden[d];
    }
    return ok;
}

bool
mramMatches(sim::System &sys, std::uint64_t bytes,
            const std::vector<std::uint32_t> &golden)
{
    std::vector<std::uint8_t> buf(bytes);
    bool ok = true;
    for (unsigned d = 0; d < kDpus; ++d) {
        {
            Scope s("pim.mram_read");
            sys.pim().dpu(d).mramRead(0, buf.data(), bytes);
        }
        Scope s("resilience.verify_crc");
        ok = ok && resilience::crc32c(buf.data(), bytes) == golden[d];
    }
    return ok;
}

Cell
runCell(std::uint64_t seed, sim::DesignPoint design,
        const workloads::PrimWorkload &w, Rng &rng, Report &r)
{
    const std::uint64_t in = w.inputBytesPerDpu;
    const std::uint64_t out = w.outputBytesPerDpu;
    std::unique_ptr<sim::System> sys;
    std::vector<std::uint32_t> goldenIn(kDpus), goldenOut(kDpus);
    {
        SetupPhase phase(r);
        {
            Scope s("sim.ctor");
            sys = std::make_unique<sim::System>(
                sim::SystemConfig::paperTable1(design));
        }
        // Seeded host-buffer placement: the buffers start a seeded
        // number of 2 MiB frames in, so on other physical frames.
        sys->allocDram(rng.below(16) * 2 * kMiB, 2 * kMiB);
        // runTransfer carves its host array at the allocator cursor.
        const Addr inBase = sys->allocDram(0);
        std::vector<std::uint8_t> buf(in);
        for (unsigned d = 0; d < kDpus; ++d) {
            for (std::uint64_t b = 0; b < in; ++b)
                buf[b] = payloadByte(seed, d, b);
            Scope s("dram.store_seed");
            sys->mem().store().write(inBase + d * in, buf.data(), in);
            goldenIn[d] = resilience::crc32c(buf.data(), in);
            goldenOut[d] = resilience::crc32c(buf.data(), out);
        }
    }

    const std::string tag =
        std::string(w.name) + "/" + sim::designPointName(design);
    r.measured.start();
    const Tick t0 = sys->eq().now();
    const std::uint64_t e0 = sys->eq().executed();
    sim::TransferStats d2p;
    {
        Scope s("sim.run_transfer");
        d2p = sys->runTransfer(core::XferDirection::DramToPim, kDpus, in);
    }
    r.check(d2p.ok() && mramMatches(*sys, in, goldenIn),
            tag + " D2P: " + d2p.status.str());
    const Addr outBase = sys->allocDram(0);
    sim::TransferStats p2d;
    {
        Scope s("sim.run_transfer");
        p2d = sys->runTransfer(core::XferDirection::PimToDram, kDpus, out);
    }
    r.check(p2d.ok() && hostMatches(*sys, outBase, out, goldenOut),
            tag + " P2D: " + p2d.status.str());
    r.events += sys->eq().executed() - e0;
    r.simSeconds += static_cast<double>(sys->eq().now() - t0) / 1e12;
    r.measured.stop();

    r.submitted += 2;
    r.terminal += 2;
    r.delivered += (d2p.ok() ? 1 : 0) + (p2d.ok() ? 1 : 0);
    if (design == sim::DesignPoint::BaseDHP) {
        r.simLatencyUs.push_back(static_cast<double>(d2p.durationPs()) / 1e6);
        r.simLatencyUs.push_back(static_cast<double>(p2d.durationPs()) / 1e6);
    }

    std::uint64_t memFnv;
    {
        Scope s("sim.fingerprint");
        memFnv = sys->memoryFingerprint();
    }
    r.memFnv = fnvMix(r.memFnv, memFnv);
    r.digestEvents += sys->eq().executed();
    r.digestSimPs += sys->eq().now();
    r.storePages =
        std::max<std::uint64_t>(r.storePages,
                                sys->mem().store().allocatedPages());
    std::uint64_t touched = 0;
    for (unsigned d = 0; d < sys->pim().numDpus(); ++d)
        touched += sys->pim().dpu(d).mramTouchedBytes();
    r.mramTouchedBytes = std::max(r.mramTouchedBytes, touched);

    Cell c;
    c.xferPs = static_cast<double>(d2p.durationPs() + p2d.durationPs());
    c.e2ePs = c.xferPs + static_cast<double>(w.kernel.execTimePs(in));
    c.bytes = static_cast<double>(d2p.bytes + p2d.bytes);
    c.joules = d2p.energy.totalJ() + p2d.energy.totalJ();
    return c;
}

} // namespace

void
runPrimTiming(std::uint64_t seed, Report &r)
{
    r.opBase = "runTransfer calls (status ok and every DPU's payload "
               "CRC matches golden)";
    r.latencyKind = "per-transfer simulated latency at BaseDHP";
    r.memFnv = 0xcbf29ce484222325ull;
    Rng rng(seed);
    Cell base, dhp;
    double e2eLogSum = 0.0;
    for (const char *name : kSuite) {
        const workloads::PrimWorkload &w = workloads::primWorkload(name);
        const Cell b = runCell(seed, sim::DesignPoint::Base, w, rng, r);
        const Cell m = runCell(seed, sim::DesignPoint::BaseDHP, w, rng, r);
        for (auto [acc, c] : {std::pair{&base, &b}, std::pair{&dhp, &m}}) {
            acc->xferPs += c->xferPs;
            acc->bytes += c->bytes;
            acc->joules += c->joules;
        }
        e2eLogSum += std::log(b.e2ePs / m.e2ePs);
    }
    // Same bytes on both sides: throughput ratio = time ratio.
    r.xferSpeedup = base.xferPs / dhp.xferPs;
    r.energyGain = (dhp.bytes / dhp.joules) / (base.bytes / base.joules);
    r.e2eSpeedup = std::exp(e2eLogSum / std::size(kSuite));

    {
        Scope s("sim.fingerprint");
        r.statsFnv = checkpoint::statsFingerprint();
    }
}

} // namespace perfbench
