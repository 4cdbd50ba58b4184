/**
 * @file
 * Golden proof corpus: proof bytes pinned across versions.
 *
 * Every other byte-identity test compares engines against each other
 * within one build, so a change that moves every engine the same way
 * (rng feed order, serialization, a constant table) passes unseen.
 * This suite compares against text committed under tests/golden/:
 * for each (family, circuit, witness seed, setup seed, prove seed)
 * tuple, the serialized verifying key and proof. Each tuple is
 * re-proved with the serial and GZKP MSM policies at 1 and 4 threads
 * and through SelfCheckingProver over cached Algorithm-1 artifacts;
 * the small BN254 tuples also go through ProofService, single-lane,
 * on a cpu:2 device topology and on the heterogeneous
 * v100:1,1080ti:1,cpu:2 fleet. The 2^12 chain is re-proved at 4
 * threads only and pins that its hQuery MSM reaches the batch-affine
 * chord flush. The 2^13 chain (the sapling circuit) is re-proved at 4
 * threads through SelfCheckingProver over cached artifacts and pins
 * that its G2 b2Query MSM reaches the chord flush; it takes about ten
 * seconds, so ctest runs it as the `slow` test_golden_slow. Every
 * output must equal the committed text. The rest of the suite is in
 * the `fast` tier, so the CI ISA matrix runs it on every arm.
 *
 * Regenerating the corpus changes what every later version is held
 * to; do it only for a deliberate format or protocol change:
 *
 *   ./build/tests/test_golden --gtest_also_run_disabled_tests \
 *       --gtest_filter='*DISABLED_Regenerate*'
 *
 * writes the files back into the source tree.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "msm/msm_gzkp.hh"
#include "ntt/domain.hh"
#include "service/proof_service.hh"
#include "testkit/testkit.hh"
#include "workload/workloads.hh"
#include "zkp/families.hh"
#include "zkp/groth16.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

namespace {

using namespace gzkp;

/** One pinned tuple; the circuit is built from `witnessSeed`. */
struct GoldenTuple {
    const char *name;
    std::uint64_t witnessSeed;
    std::uint64_t setupSeed;
    std::uint64_t proveSeed;
};

// A 2-link BN254 Poseidon chain (489 constraints, 2^9 domain).
constexpr GoldenTuple kBn254Chain = {"bn254_poseidon_chain2", 0x601D1,
                                     0x601D2, 0x601D3};
// A 16-link BN254 Poseidon chain (3905 constraints, 2^12 domain): the
// smallest chain whose hQuery MSM reaches the batch-affine chord flush.
constexpr GoldenTuple kBn254Chain16 = {"bn254_poseidon_chain16", 0x601DA,
                                       0x601DB, 0x601DC};
// A 33-link BN254 Poseidon chain (2^13 domain): the sapling circuit.
constexpr GoldenTuple kBn254Chain33 = {"bn254_poseidon_chain33", 0x601DD,
                                       0x601DE, 0x601DF};
// testkit::randomCircuit at 24 constraints on each family.
constexpr GoldenTuple kBn254Random = {"bn254_random24", 0x601D4,
                                      0x601D5, 0x601D6};
constexpr GoldenTuple kBls381Random = {"bls381_random24", 0x601D7,
                                       0x601D8, 0x601D9};

std::string
goldenPath(const GoldenTuple &t, const char *ext)
{
    return std::string(GZKP_GOLDEN_DIR) + "/" + t.name + ext;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
}

workload::Builder<ff::Bn254Fr>
bn254Chain(const GoldenTuple &t, std::size_t links)
{
    testkit::Rng rng(t.witnessSeed);
    return workload::makePoseidonChainCircuit<ff::Bn254Fr>(links, rng);
}

template <typename Family>
workload::Builder<typename Family::Fr>
randomTuple(const GoldenTuple &t)
{
    return testkit::randomCircuit<typename Family::Fr>(t.witnessSeed, 24);
}

template <typename Family>
typename zkp::Groth16<Family>::Keys
setupTuple(const GoldenTuple &t,
           const workload::Builder<typename Family::Fr> &b)
{
    testkit::Rng rng(t.setupSeed);
    return zkp::Groth16<Family>::setup(b.cs(), rng);
}

/** The reference proof: serial MSM policy, one thread. */
template <typename Family>
std::string
referenceProof(const GoldenTuple &t,
               const workload::Builder<typename Family::Fr> &b,
               const typename zkp::Groth16<Family>::Keys &keys)
{
    using G16 = zkp::Groth16<Family>;
    service::ProofRng rng(t.proveSeed);
    auto proof = G16::template prove<zkp::SerialMsmPolicy>(
        keys.pk, b.cs(), b.assignment(), rng, nullptr,
        zkp::CpuNttEngine<typename Family::Fr>(), 1);
    return zkp::serializeProof<Family>(proof);
}

template <typename Family>
zkp::SelfCheckingProver<Family>
selfCheckingProver(typename zkp::SelfCheckingProver<Family>::Options opt)
{
    if constexpr (Family::kHasPairing)
        return zkp::makeBn254SelfCheckingProver(opt);
    else
        return zkp::SelfCheckingProver<Family>(opt);
}

/**
 * Re-prove `t` on every CPU engine and path at each of `threadCounts`
 * and compare each output with the committed vk and proof text.
 */
template <typename Family>
void
expectMatchesCorpus(const GoldenTuple &t,
                    const workload::Builder<typename Family::Fr> &b,
                    const typename zkp::Groth16<Family>::Keys &keys,
                    const std::vector<std::size_t> &threadCounts = {1, 2, 3,
                                                                    4, 8})
{
    using G16 = zkp::Groth16<Family>;
    using Fr = typename Family::Fr;
    ASSERT_TRUE(b.cs().isSatisfied(b.assignment()));
    EXPECT_EQ(zkp::serializeVerifyingKey<Family>(keys.vk),
              readFile(goldenPath(t, ".vk.txt")))
        << t.name << ": verifying key moved";
    const std::string golden = readFile(goldenPath(t, ".proof.txt"));

    auto check = [&](const char *policy, auto tag, std::size_t threads) {
        using Policy = decltype(tag);
        service::ProofRng rng(t.proveSeed);
        auto proof = G16::template prove<Policy>(
            keys.pk, b.cs(), b.assignment(), rng, nullptr,
            zkp::CpuNttEngine<Fr>(), threads);
        EXPECT_EQ(zkp::serializeProof<Family>(proof), golden)
            << t.name << ": " << policy << " threads=" << threads;
    };
    for (std::size_t threads : threadCounts) {
        check("serial", zkp::SerialMsmPolicy{}, threads);
        check("gzkp", zkp::GzkpMsmPolicy{}, threads);
    }

    // The serving path's prover: cached Algorithm-1 tables + domain.
    for (std::size_t threads : threadCounts) {
        auto art = zkp::buildMsmArtifacts<Family>(keys.pk, threads);
        ASSERT_TRUE(art.isOk()) << art.status().toString();
        ntt::Domain<Fr> dom(keys.pk.domainLog);
        typename zkp::SelfCheckingProver<Family>::Options opt;
        opt.threads = threads;
        opt.artifacts = &*art;
        opt.domain = &dom;
        auto prover = selfCheckingProver<Family>(opt);
        service::ProofRng rng(t.proveSeed);
        auto r = prover.prove(keys.pk, keys.vk, b.cs(), b.assignment(),
                              rng);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        EXPECT_EQ(zkp::serializeProof<Family>(*r), golden)
            << t.name << ": SelfCheckingProver threads=" << threads;
    }
}

/**
 * The BN254 tuples through the service: single-lane, on cpu:2 and on
 * the heterogeneous fleet.
 */
void
expectServiceMatchesCorpus(
    const GoldenTuple &t, const workload::Builder<ff::Bn254Fr> &b,
    const zkp::Groth16<zkp::Bn254Family>::Keys &keys)
{
    using Service = service::ProofService<zkp::Bn254Family>;
    const std::string golden = readFile(goldenPath(t, ".proof.txt"));
    for (const char *topology : {"", "cpu:2", "v100:1,1080ti:1,cpu:2"}) {
        Service::Options opt;
        opt.threads = 2;
        opt.deviceSpec = topology;
        auto svc = service::makeBn254ProofService(opt);
        EXPECT_EQ(svc->deviceScheduler() != nullptr, *topology != '\0')
            << "the device path does not follow Options::deviceSpec";
        auto id = svc->registerCircuit(keys.pk, keys.vk, b.cs());
        Service::Request req;
        req.circuit = id;
        req.witness = b.assignment();
        req.seed = t.proveSeed;
        auto admitted = svc->submit(std::move(req));
        ASSERT_TRUE(admitted.isOk()) << admitted.status().toString();
        svc->drain();
        Service::Result res = admitted->get();
        ASSERT_TRUE(res.status.isOk()) << res.status.toString();
        EXPECT_EQ(zkp::serializeProof<zkp::Bn254Family>(*res.proof),
                  golden)
            << t.name << ": ProofService topology='" << topology << "'";
    }
}

} // namespace

TEST(GoldenCorpus, Bn254PoseidonChain)
{
    auto b = bn254Chain(kBn254Chain, 2);
    auto keys = setupTuple<zkp::Bn254Family>(kBn254Chain, b);
    expectMatchesCorpus<zkp::Bn254Family>(kBn254Chain, b, keys);
    expectServiceMatchesCorpus(kBn254Chain, b, keys);
}

TEST(GoldenCorpus, Bn254PoseidonChain16)
{
    auto b = bn254Chain(kBn254Chain16, 16);
    auto keys = setupTuple<zkp::Bn254Family>(kBn254Chain16, b);
    expectMatchesCorpus<zkp::Bn254Family>(kBn254Chain16, b, keys, {4});

    // The tuple exists to cover the batch-affine chord flush: its
    // hQuery MSM, as the GZKP policy runs it, must resolve rounds
    // through shared inversions.
    using G1Cfg = zkp::Bn254Family::G1Cfg;
    ntt::Domain<ff::Bn254Fr> dom(keys.pk.domainLog);
    auto h = zkp::Groth16<zkp::Bn254Family>::polyStage(
        keys.pk, b.cs(), b.assignment(), dom);
    msm::GzkpMsm<G1Cfg>::Options o;
    o.threads = 4;
    msm::GzkpMsm<G1Cfg> engine(o);
    engine.run(keys.pk.hQuery, h);
    EXPECT_GT(engine.lastDrainStats().inversions, 0u);
}

TEST(GoldenCorpus, Bn254PoseidonChain33)
{
    using Family = zkp::Bn254Family;
    const GoldenTuple &t = kBn254Chain33;
    auto b = bn254Chain(t, 33);
    auto keys = setupTuple<Family>(t, b);
    ASSERT_EQ(keys.pk.domainLog, 13u);
    EXPECT_EQ(zkp::serializeVerifyingKey<Family>(keys.vk),
              readFile(goldenPath(t, ".vk.txt")))
        << t.name << ": verifying key moved";

    // The serving path only: the per-call table builds of the other
    // engines cost seconds each at this size. Four threads run the
    // planned two-wave path, eight one wave of all five MSMs.
    auto art = zkp::buildMsmArtifacts<Family>(keys.pk, 4);
    ASSERT_TRUE(art.isOk()) << art.status().toString();
    ntt::Domain<ff::Bn254Fr> dom(keys.pk.domainLog);
    for (std::size_t threads : {4, 8}) {
        zkp::SelfCheckingProver<Family>::Options opt;
        opt.threads = threads;
        opt.artifacts = &*art;
        opt.domain = &dom;
        auto prover = zkp::makeBn254SelfCheckingProver(opt);
        service::ProofRng rng(t.proveSeed);
        auto r =
            prover.prove(keys.pk, keys.vk, b.cs(), b.assignment(), rng);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        EXPECT_EQ(zkp::serializeProof<Family>(*r),
                  readFile(goldenPath(t, ".proof.txt")))
            << t.name << ": SelfCheckingProver threads=" << threads;
    }

    // The tuple exists to cover the G2 chord flush: the b2Query MSM,
    // run over its cached table, must resolve rounds through shared
    // inversions.
    msm::GzkpMsm<Family::G2Cfg>::Options o;
    o.threads = 4;
    msm::GzkpMsm<Family::G2Cfg> engine(o);
    engine.run(art->b2, b.assignment());
    EXPECT_GT(engine.lastDrainStats().inversions, 0u);
}

TEST(GoldenCorpus, Bn254RandomCircuit)
{
    auto b = randomTuple<zkp::Bn254Family>(kBn254Random);
    auto keys = setupTuple<zkp::Bn254Family>(kBn254Random, b);
    expectMatchesCorpus<zkp::Bn254Family>(kBn254Random, b, keys);
    expectServiceMatchesCorpus(kBn254Random, b, keys);
}

TEST(GoldenCorpus, Bls381RandomCircuit)
{
    auto b = randomTuple<zkp::Bls381Family>(kBls381Random);
    auto keys = setupTuple<zkp::Bls381Family>(kBls381Random, b);
    expectMatchesCorpus<zkp::Bls381Family>(kBls381Random, b, keys);
}

/** Writes the corpus; disabled so a normal run never rewrites it. */
TEST(GoldenCorpus, DISABLED_Regenerate)
{
    auto write = [](const GoldenTuple &t, const auto &b, auto family) {
        using Family = decltype(family);
        auto keys = setupTuple<Family>(t, b);
        writeFile(goldenPath(t, ".vk.txt"),
                  zkp::serializeVerifyingKey<Family>(keys.vk));
        writeFile(goldenPath(t, ".proof.txt"),
                  referenceProof<Family>(t, b, keys));
    };
    write(kBn254Chain, bn254Chain(kBn254Chain, 2), zkp::Bn254Family{});
    write(kBn254Chain16, bn254Chain(kBn254Chain16, 16),
          zkp::Bn254Family{});
    write(kBn254Chain33, bn254Chain(kBn254Chain33, 33),
          zkp::Bn254Family{});
    write(kBn254Random, randomTuple<zkp::Bn254Family>(kBn254Random),
          zkp::Bn254Family{});
    write(kBls381Random, randomTuple<zkp::Bls381Family>(kBls381Random),
          zkp::Bls381Family{});
}
