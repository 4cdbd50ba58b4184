/**
 * @file
 * Multi-device scheduler suite (`ctest -L device`): the device
 * topology grammar, the seeded stage-cost model's device ranking,
 * pipelined placement (NTT of proof k+1 overlapping the MSM of proof
 * k in the modeled schedule), and the subsystem's acceptance gates:
 *
 *  - proof bytes are a pure function of (circuit, witness, seed) --
 *    identical across `cpu:1`, a heterogeneous fleet, and the
 *    single-lane prove() reference;
 *  - a persistently failing device is quarantined by its own breaker
 *    while the rest of the fleet keeps serving valid proofs;
 *  - a `device.slow` fire charges only the placements it hits;
 *  - ProofService dispatches through the registry, exports per-device
 *    gauges, and replays a device fault plan identically.
 */

#include <gtest/gtest.h>

#include <future>
#include <random>
#include <string>
#include <vector>

#include "device/cost_model.hh"
#include "device/registry.hh"
#include "device/scheduler.hh"
#include "faultsim/faultsim.hh"
#include "service/proof_service.hh"
#include "testkit/testkit.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/serialize.hh"

namespace {

using namespace gzkp;
using testkit::deriveSeed;
using testkit::Rng;
using zkp::Bn254Family;
using G16 = zkp::Groth16<Bn254Family>;
using Fr = ff::Bn254Fr;
using Scheduler = device::StageScheduler<Bn254Family>;
using Service = service::ProofService<Bn254Family>;

/** One shared circuit + keys for every scheduler test. */
struct DeviceFixture {
    workload::Builder<Fr> b;
    G16::Keys keys;
    std::vector<Fr> pub;

    DeviceFixture() : b(testkit::randomCircuit<Fr>(0xDE7, 10))
    {
        Rng r(deriveSeed(0xDE7, 1));
        keys = G16::setup(b.cs(), r);
        const auto &z = b.assignment();
        pub.assign(z.begin() + 1, z.begin() + 1 + b.cs().numPublic());
    }
};

const DeviceFixture &
fx()
{
    static const DeviceFixture f;
    return f;
}

Scheduler::Options
schedulerOptions(const std::string &topology)
{
    Scheduler::Options opt;
    auto parsed = device::parseTopology(topology);
    EXPECT_TRUE(parsed.isOk()) << parsed.status().toString();
    opt.devices = std::move(*parsed);
    return opt;
}

Scheduler::Job
jobFor(const DeviceFixture &f, std::uint64_t seed)
{
    Scheduler::Job job;
    job.pk = &f.keys.pk;
    job.vk = &f.keys.vk;
    job.cs = &f.b.cs();
    job.witness = f.b.assignment();
    job.seed = seed;
    return job;
}

/** Run `n` seeded proofs through `topology`; return proof bytes. */
std::vector<std::string>
proveOnTopology(const std::string &topology, std::size_t n,
                Scheduler::Stats *statsOut = nullptr)
{
    const DeviceFixture &f = fx();
    Scheduler sched(schedulerOptions(topology), zkp::verifyBn254);
    std::vector<std::string> bytes;
    for (std::size_t i = 0; i < n; ++i) {
        Scheduler::Result res =
            sched.prove(jobFor(f, deriveSeed(0xD00D, i)));
        EXPECT_TRUE(res.status.isOk()) << res.status.toString();
        if (!res.status.isOk() || !res.proof.has_value()) {
            bytes.emplace_back();
            continue;
        }
        EXPECT_GE(res.polyDevice, 0);
        EXPECT_GE(res.msmDevice, 0);
        EXPECT_TRUE(zkp::verifyBn254(f.keys.vk, *res.proof, f.pub));
        bytes.push_back(zkp::serializeProof<Bn254Family>(*res.proof));
    }
    if (statsOut != nullptr)
        *statsOut = sched.stats();
    return bytes;
}

// ------------------------------------------------------ topology grammar

TEST(DeviceRegistry, ParsesHeterogeneousSpec)
{
    auto parsed = device::parseTopology("v100:2,1080ti:1,cpu:4t");
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const auto &devs = *parsed;
    ASSERT_EQ(devs.size(), 4u);
    EXPECT_EQ(devs[0].name, "v100.0");
    EXPECT_EQ(devs[1].name, "v100.1");
    EXPECT_EQ(devs[2].name, "1080ti.0");
    EXPECT_EQ(devs[3].name, "cpu.0");
    EXPECT_EQ(devs[0].kind, device::DeviceKind::SimGpu);
    EXPECT_EQ(devs[3].kind, device::DeviceKind::CpuWorker);
    // cpu:4t is ONE worker with 4 threads, not 4 workers.
    EXPECT_EQ(devs[3].threads, 4u);
    // Every instance carries its per-device fault sites.
    EXPECT_EQ(devs[0].failSite, "device.fail.v100.0");
    EXPECT_EQ(devs[2].memSite, "device.mem.1080ti.0");
    EXPECT_EQ(devs[3].slowSite, "device.slow.cpu.0");
}

TEST(DeviceRegistry, CpuCountMultipliesWorkersNotThreads)
{
    auto parsed = device::parseTopology("cpu:3");
    ASSERT_TRUE(parsed.isOk());
    ASSERT_EQ(parsed->size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ((*parsed)[i].name, "cpu." + std::to_string(i));
        EXPECT_EQ((*parsed)[i].threads, 1u);
    }
}

TEST(DeviceRegistry, DefaultCountIsOneAndNamesAreSequential)
{
    auto parsed = device::parseTopology("v100,v100:1,1080ti");
    ASSERT_TRUE(parsed.isOk());
    ASSERT_EQ(parsed->size(), 3u);
    EXPECT_EQ((*parsed)[1].name, "v100.1");
    EXPECT_EQ((*parsed)[2].name, "1080ti.0");
}

TEST(DeviceRegistry, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "gpu:2", "v100:0", "v100:", "v100:x", "v100:2t",
          "cpu:2,,cpu:1", "v100:9999"}) {
        auto parsed = device::parseTopology(bad);
        EXPECT_FALSE(parsed.isOk()) << "accepted '" << bad << "'";
        if (!parsed.isOk())
            EXPECT_EQ(parsed.status().code(),
                      StatusCode::kInvalidArgument);
    }
}

// --------------------------------------------------------- cost model

TEST(DeviceCostModel, SeedEstimatesRankDevicesSensibly)
{
    device::ProofShape shape;
    shape.domainLog = 14;
    shape.msmSize = std::size_t(1) << 14;
    shape.hSize = (std::size_t(1) << 14) - 1;
    using CM = device::CostModel<Bn254Family>;

    auto v100 = device::DeviceSpec::v100(0);
    auto ti = device::DeviceSpec::gtx1080ti(0);
    auto cpu1 = device::DeviceSpec::cpu(0, 1);
    auto cpu8 = device::DeviceSpec::cpu(1, 8);
    for (device::StageKind stage :
         {device::StageKind::Poly, device::StageKind::Msm}) {
        double tv = CM::seedSeconds(stage, shape, v100);
        double tt = CM::seedSeconds(stage, shape, ti);
        double tc1 = CM::seedSeconds(stage, shape, cpu1);
        double tc8 = CM::seedSeconds(stage, shape, cpu8);
        ASSERT_GT(tv, 0.0);
        // The V100 geometry never loses to the 1080 Ti, both GPUs
        // beat a lone Xeon thread at proving scales, and more CPU
        // threads help.
        EXPECT_LE(tv, tt) << device::name(stage);
        EXPECT_LT(tt, tc1) << device::name(stage);
        EXPECT_LT(tc8, tc1) << device::name(stage);
    }
}

TEST(DeviceCostModel, ShapeOfReadsTheProvingKey)
{
    const DeviceFixture &f = fx();
    auto shape = device::CostModel<Bn254Family>::shapeOf(f.keys.pk);
    EXPECT_EQ(shape.domainLog, f.keys.pk.domainLog);
    EXPECT_EQ(shape.msmSize, f.keys.pk.numVars);
    EXPECT_EQ(shape.hSize, f.keys.pk.hQuery.size());
}

// ---------------------------------------------------------- scheduler

TEST(DeviceScheduler, ProveValidatesJobs)
{
    const DeviceFixture &f = fx();
    Scheduler sched(schedulerOptions("cpu:1"));

    Scheduler::Job noKey;
    auto r1 = sched.prove(std::move(noKey));
    ASSERT_FALSE(r1.status.isOk());
    EXPECT_EQ(r1.status.code(), StatusCode::kInvalidArgument);

    Scheduler::Job shortWitness = jobFor(f, 1);
    shortWitness.witness.pop_back();
    auto r2 = sched.prove(std::move(shortWitness));
    ASSERT_FALSE(r2.status.isOk());
    EXPECT_EQ(r2.status.code(), StatusCode::kInvalidArgument);

    ntt::Domain<Fr> dom(f.keys.pk.domainLog);
    Scheduler::Job noDomain = jobFor(f, 1);
    auto art = zkp::buildMsmArtifacts<Bn254Family>(f.keys.pk);
    ASSERT_TRUE(art.isOk()) << art.status().toString();
    noDomain.artifacts = &*art;
    auto r3 = sched.prove(std::move(noDomain));
    ASSERT_FALSE(r3.status.isOk());
    EXPECT_EQ(r3.status.code(), StatusCode::kInvalidArgument);
    // A rejected job is never placed.
    EXPECT_EQ(sched.stats().submitted, 0u);
}

TEST(DeviceScheduler, PipelinesAcrossDevices)
{
    Scheduler::Stats st;
    auto bytes = proveOnTopology("v100:2", 4, &st);
    ASSERT_EQ(bytes.size(), 4u);
    EXPECT_EQ(st.submitted, 4u);
    EXPECT_EQ(st.completed, 4u);
    EXPECT_EQ(st.failed, 0u);

    // Both devices did work, and the planned schedule overlaps
    // stages: the makespan is strictly less than the serial sum of
    // every placed stage estimate.
    ASSERT_EQ(st.devices.size(), 2u);
    double totalBusy = 0;
    for (const auto &g : st.devices) {
        EXPECT_GT(g.modeledBusySeconds, 0.0) << g.name;
        EXPECT_GT(g.polyCompleted + g.msmCompleted, 0u) << g.name;
        totalBusy += g.modeledBusySeconds;
    }
    EXPECT_GT(st.modeledMakespan, 0.0);
    EXPECT_LT(st.modeledMakespan, totalBusy);
}

TEST(DeviceScheduler, ProofBytesIdenticalAcrossTopologies)
{
    const DeviceFixture &f = fx();
    const std::size_t n = 3;

    // Single-lane reference: the scheduler must reproduce prove()'s
    // bytes draw for draw, whatever the fleet looks like.
    std::vector<std::string> ref;
    for (std::size_t i = 0; i < n; ++i) {
        std::mt19937_64 rng(deriveSeed(0xD00D, i));
        auto p = G16::prove(f.keys.pk, f.b.cs(), f.b.assignment(), rng);
        ref.push_back(zkp::serializeProof<Bn254Family>(p));
    }

    EXPECT_EQ(proveOnTopology("cpu:1", n), ref);
    EXPECT_EQ(proveOnTopology("v100:2,1080ti:1,cpu:2t", n), ref);
    EXPECT_EQ(proveOnTopology("1080ti:2", n), ref);
}

TEST(DeviceScheduler, PersistentDeviceFailureQuarantinesOnlyThatDevice)
{
    const DeviceFixture &f = fx();
    // Every launch on v100.0 fails; cpu.0/cpu.1 are healthy.
    faultsim::ScopedFaultPlan plan(
        "seed=11;launch@device.fail.v100.0:1");
    Scheduler sched(schedulerOptions("v100:1,cpu:2"),
                    zkp::verifyBn254);
    const std::size_t n = 8;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Scheduler::Result res =
            sched.prove(jobFor(f, deriveSeed(0xFA11, i)));
        // A stage placed on the sick card is retried elsewhere, so
        // every proof must still come out valid.
        ASSERT_TRUE(res.status.isOk()) << res.status.toString();
        EXPECT_TRUE(zkp::verifyBn254(f.keys.vk, *res.proof, f.pub));
        ++ok;
    }
    EXPECT_EQ(ok, n);

    auto st = sched.stats();
    ASSERT_EQ(st.devices.size(), 3u);
    const auto &sick = st.devices[0];
    EXPECT_EQ(sick.name, "v100.0");
    // The failing device was quarantined (its breaker opened) and
    // completed nothing; its failures were all recorded against it.
    EXPECT_GE(sick.quarantines, 1u);
    EXPECT_GT(sick.failures, 0u);
    EXPECT_EQ(sick.polyCompleted + sick.msmCompleted, 0u);
    // The healthy workers carried the fleet and were never indicted.
    std::uint64_t healthyDone = 0;
    for (std::size_t d = 1; d < st.devices.size(); ++d) {
        EXPECT_EQ(st.devices[d].failures, 0u) << st.devices[d].name;
        EXPECT_EQ(st.devices[d].quarantines, 0u)
            << st.devices[d].name;
        healthyDone += st.devices[d].polyCompleted +
            st.devices[d].msmCompleted;
    }
    EXPECT_EQ(healthyDone, 2 * n);
    EXPECT_GT(st.stageRetries, 0u);
}

TEST(DeviceScheduler, SlowDeviceLosesWorkButCorruptsNothing)
{
    const DeviceFixture &f = fx();
    // v100.0 is throttled 8x at every placement (timing-only), so
    // the nominally slower but healthy 1080 Ti wins work from it.
    faultsim::ScopedFaultPlan plan(
        "seed=12;launch@device.slow.v100.0:1");
    Scheduler::Stats st;
    std::vector<std::string> ref;
    {
        Scheduler sched(schedulerOptions("v100:1,1080ti:1"),
                        zkp::verifyBn254);
        for (std::size_t i = 0; i < 4; ++i) {
            Scheduler::Result res =
                sched.prove(jobFor(f, deriveSeed(0xD00D, i)));
            ASSERT_TRUE(res.status.isOk()) << res.status.toString();
            ref.push_back(zkp::serializeProof<Bn254Family>(*res.proof));
        }
        st = sched.stats();
    }
    EXPECT_GT(st.devices[0].slowHits, 0u);
    EXPECT_EQ(st.failed, 0u);
    // device.slow is routing/timing-only: bytes match the reference.
    std::vector<std::string> clean;
    for (std::size_t i = 0; i < 4; ++i) {
        std::mt19937_64 rng(deriveSeed(0xD00D, i));
        auto p = G16::prove(f.keys.pk, f.b.cs(), f.b.assignment(), rng);
        clean.push_back(zkp::serializeProof<Bn254Family>(p));
    }
    EXPECT_EQ(ref, clean);
}

TEST(DeviceScheduler, SlowFaultChargesOnlyThePlacementsItHits)
{
    const DeviceFixture &f = fx();
    // Eight slow fires on v100.0, then none: once they are spent, the
    // v100 is charged its plain seed estimate again and wins POLY
    // stages back.
    faultsim::ScopedFaultPlan plan(
        "seed=12;launch@device.slow.v100.0:1#8");
    Scheduler sched(schedulerOptions("v100:1,1080ti:1"),
                    zkp::verifyBn254);
    for (std::size_t i = 0; i < 16; ++i) {
        Scheduler::Result res =
            sched.prove(jobFor(f, deriveSeed(0x510E, i)));
        ASSERT_TRUE(res.status.isOk()) << res.status.toString();
        EXPECT_TRUE(zkp::verifyBn254(f.keys.vk, *res.proof, f.pub));
    }
    auto st = sched.stats();
    ASSERT_EQ(st.devices.size(), 2u);
    const auto &v100 = st.devices[0];
    EXPECT_EQ(v100.name, "v100.0");
    EXPECT_GT(v100.slowHits, 0u);
    EXPECT_LE(v100.slowHits, 8u);
    EXPECT_GE(v100.polyCompleted, 2u);
    EXPECT_EQ(st.failed, 0u);
}

// ----------------------------------------------- service integration

TEST(DeviceService, DispatchesThroughRegistryAndExportsGauges)
{
    const DeviceFixture &f = fx();
    Service::Options opt;
    opt.threads = 2;
    opt.deviceSpec = "v100:1,cpu:1";
    Service svc(opt);
    auto cid = svc.registerCircuit(f.keys.pk, f.keys.vk, f.b.cs());

    const std::size_t n = 3;
    std::vector<std::future<Service::Result>> futs;
    for (std::size_t i = 0; i < n; ++i) {
        Service::Request req;
        req.circuit = cid;
        req.witness = f.b.assignment();
        req.seed = deriveSeed(0x5E55, i);
        auto admitted = svc.submit(std::move(req));
        ASSERT_TRUE(admitted.isOk()) << admitted.status().toString();
        futs.push_back(std::move(*admitted));
    }
    svc.drain();
    for (auto &fut : futs) {
        Service::Result res = fut.get();
        ASSERT_TRUE(res.status.isOk()) << res.status.toString();
        ASSERT_TRUE(res.proof.has_value());
        EXPECT_TRUE(zkp::verifyBn254(f.keys.vk, *res.proof, f.pub));
        // The per-request device attribution is filled in.
        EXPECT_GE(res.polyDevice, 0);
        EXPECT_GE(res.msmDevice, 0);
        EXPECT_LT(res.polyDevice, 2);
        EXPECT_LT(res.msmDevice, 2);
    }

    auto st = svc.stats();
    EXPECT_TRUE(st.deviceScheduling);
    ASSERT_EQ(st.devices.size(), 2u);
    EXPECT_EQ(st.devices[0].name, "v100.0");
    EXPECT_EQ(st.devices[1].name, "cpu.0");
    std::uint64_t poly = 0, msm = 0;
    for (const auto &g : st.devices) {
        poly += g.polyCompleted;
        msm += g.msmCompleted;
    }
    EXPECT_EQ(poly, n);
    EXPECT_EQ(msm, n);
    EXPECT_GT(st.deviceMakespan, 0.0);
}

TEST(DeviceService, BytesMatchSingleLaneServiceAcrossTopologies)
{
    const DeviceFixture &f = fx();
    auto runService = [&](const std::string &spec) {
        Service::Options opt;
        opt.threads = 2;
        opt.deviceSpec = spec;
        Service svc(opt);
        auto cid =
            svc.registerCircuit(f.keys.pk, f.keys.vk, f.b.cs());
        std::vector<std::future<Service::Result>> futs;
        for (std::size_t i = 0; i < 3; ++i) {
            Service::Request req;
            req.circuit = cid;
            req.witness = f.b.assignment();
            req.seed = deriveSeed(0xB17E, i);
            auto admitted = svc.submit(std::move(req));
            EXPECT_TRUE(admitted.isOk());
            futs.push_back(std::move(*admitted));
        }
        svc.drain();
        std::vector<std::string> bytes;
        for (auto &fut : futs) {
            Service::Result res = fut.get();
            EXPECT_TRUE(res.status.isOk()) << res.status.toString();
            bytes.push_back(res.proof.has_value()
                ? zkp::serializeProof<Bn254Family>(*res.proof)
                : std::string());
        }
        return bytes;
    };
    // "" = the pre-existing single-lane prover pipeline path.
    auto lane = runService("");
    EXPECT_EQ(runService("cpu:1"), lane);
    EXPECT_EQ(runService("v100:2,1080ti:1,cpu:2t"), lane);
}

TEST(DeviceService, FaultPlanReplaysIdentically)
{
    const DeviceFixture &f = fx();
    // Failed, out-of-memory and throttled stages on every card of the
    // chaos fleet; the six slow fires throttle every card at the first
    // placement. Each run installs the plan afresh (fire limits and
    // the retry epoch start over) and proves one 6-request batch.
    const char *spec = "seed=23;launch@device.fail:3;"
                       "alloc@device.mem:4;launch@device.slow:1#6";
    struct Run {
        std::vector<Service::Result> results;
        Service::Stats stats;
    };
    auto runOnce = [&] {
        faultsim::ScopedFaultPlan plan(spec);
        Service::Options opt;
        opt.threads = 2;
        opt.deviceSpec = testkit::kDeviceChaosTopology;
        Service svc(opt, zkp::verifyBn254);
        auto cid = svc.registerCircuit(f.keys.pk, f.keys.vk, f.b.cs());
        std::vector<std::future<Service::Result>> futs;
        for (std::size_t i = 0; i < 6; ++i) {
            Service::Request req;
            req.circuit = cid;
            req.witness = f.b.assignment();
            req.seed = deriveSeed(0x4E9A, i);
            auto admitted = svc.submit(std::move(req));
            EXPECT_TRUE(admitted.isOk()) << admitted.status().toString();
            futs.push_back(std::move(*admitted));
        }
        EXPECT_EQ(svc.drainOnce(), 6u);
        Run run;
        for (auto &fut : futs)
            run.results.push_back(fut.get());
        run.stats = svc.stats();
        return run;
    };
    Run a = runOnce();
    Run b = runOnce();

    // The plan bites: stages were retried and a card was throttled.
    EXPECT_GT(a.stats.deviceStageRetries, 0u);
    std::uint64_t slow = 0;
    for (const auto &g : a.stats.devices)
        slow += g.slowHits;
    EXPECT_GT(slow, 0u);

    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const Service::Result &x = a.results[i];
        const Service::Result &y = b.results[i];
        EXPECT_EQ(x.status.code(), y.status.code()) << "request " << i;
        EXPECT_EQ(x.polyDevice, y.polyDevice) << "request " << i;
        EXPECT_EQ(x.msmDevice, y.msmDevice) << "request " << i;
        EXPECT_EQ(x.deviceStageRetries, y.deviceStageRetries)
            << "request " << i;
        ASSERT_EQ(x.proof.has_value(), y.proof.has_value())
            << "request " << i;
        if (x.proof.has_value()) {
            EXPECT_TRUE(zkp::verifyBn254(f.keys.vk, *x.proof, f.pub));
            EXPECT_EQ(zkp::serializeProof<Bn254Family>(*x.proof),
                      zkp::serializeProof<Bn254Family>(*y.proof))
                << "request " << i;
        }
    }
    EXPECT_EQ(a.stats.devices, b.stats.devices);
    EXPECT_EQ(a.stats.deviceMakespan, b.stats.deviceMakespan);
    EXPECT_EQ(a.stats.deviceStageRetries, b.stats.deviceStageRetries);
}

TEST(DeviceService, MalformedExplicitSpecThrowsTyped)
{
    Service::Options opt;
    opt.deviceSpec = "warp9:3";
    EXPECT_THROW(Service svc(opt), StatusError);
}

} // namespace
