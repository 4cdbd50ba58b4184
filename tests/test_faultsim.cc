/**
 * @file
 * Unit tests for the deterministic fault-injection framework: plan
 * parsing and round-tripping, fire-decision determinism, epoch and
 * limit semantics, scoped installation, and the corruption
 * primitives' field and curve invariants.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "ec/curves.hh"
#include "faultsim/faultsim.hh"
#include "ff/field_tags.hh"

namespace {

using namespace gzkp;
using namespace gzkp::faultsim;
using Fr = ff::Bn254Fr;

TEST(FaultPlan, ParseRoundTrips)
{
    auto plan = FaultPlan::parse(
        "seed=7;bitflip@msm:50;launch@*:200#1;alloc@ntt.cpu:3#5");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    EXPECT_EQ(plan->seed, 7u);
    ASSERT_EQ(plan->arms.size(), 3u);
    EXPECT_EQ(plan->arms[0].kind, FaultKind::BitFlip);
    EXPECT_EQ(plan->arms[0].site, "msm");
    EXPECT_EQ(plan->arms[0].period, 50u);
    EXPECT_EQ(plan->arms[0].limit, 0u);
    EXPECT_EQ(plan->arms[1].kind, FaultKind::Launch);
    EXPECT_EQ(plan->arms[1].site, "*");
    EXPECT_EQ(plan->arms[1].limit, 1u);
    EXPECT_EQ(plan->arms[2].kind, FaultKind::Alloc);
    EXPECT_EQ(plan->arms[2].limit, 5u);

    auto back = FaultPlan::parse(plan->toString());
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back->toString(), plan->toString());
}

TEST(FaultPlan, ParseDefaultsAndEmpty)
{
    auto empty = FaultPlan::parse("");
    ASSERT_TRUE(empty.isOk());
    EXPECT_TRUE(empty->empty());

    // No ':period' means period 1; empty site means everywhere.
    auto p = FaultPlan::parse("bucket@msm.gzkp;butterfly@");
    ASSERT_TRUE(p.isOk()) << p.status().toString();
    ASSERT_EQ(p->arms.size(), 2u);
    EXPECT_EQ(p->arms[0].period, 1u);
    EXPECT_EQ(p->arms[1].site, "*");
}

TEST(FaultPlan, ParseRejectsMalformedSpecs)
{
    const char *bad[] = {
        "seed=xyz",           // non-numeric seed
        "zap@msm:1",          // unknown kind
        "launch",             // missing '@'
        "launch@msm:0",       // zero period
        "launch@msm:abc",     // non-numeric period
        "launch@msm:1#zz",    // non-numeric limit
    };
    for (const char *spec : bad) {
        auto p = FaultPlan::parse(spec);
        EXPECT_FALSE(p.isOk()) << "accepted: " << spec;
        EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
    }
}

TEST(FaultSim, InactiveByDefaultAndWithEmptyPlan)
{
    EXPECT_FALSE(active());
    EXPECT_FALSE(shouldFire(FaultKind::Launch, "msm.gzkp", 0));

    FaultPlan empty;
    empty.seed = 9;
    ScopedFaultPlan guard(empty);
    EXPECT_FALSE(active());
    EXPECT_FALSE(shouldFire(FaultKind::Launch, "msm.gzkp", 0));
    EXPECT_EQ(firedCount(), 0u);
}

TEST(FaultSim, DecisionsAreDeterministic)
{
    ScopedFaultPlan guard("seed=5;launch@msm:3");
    // Same (kind, site, index, epoch) -> same decision, replayed.
    for (std::uint64_t i = 0; i < 64; ++i) {
        bool first = shouldFire(FaultKind::Launch, "msm.gzkp", i);
        EXPECT_EQ(first, shouldFire(FaultKind::Launch, "msm.gzkp", i));
    }
    // Period 3 fires on roughly 1/3 of probes, not all or none.
    std::size_t fires = 0;
    for (std::uint64_t i = 0; i < 300; ++i)
        fires += shouldFire(FaultKind::Launch, "msm.gzkp", i);
    EXPECT_GT(fires, 50u);
    EXPECT_LT(fires, 200u);
}

TEST(FaultSim, SiteAndKindFiltering)
{
    ScopedFaultPlan guard("seed=5;launch@msm.gzkp:1");
    EXPECT_TRUE(shouldFire(FaultKind::Launch, "msm.gzkp.kernel", 0));
    // Wrong kind at a matching site: no fire.
    EXPECT_FALSE(shouldFire(FaultKind::Alloc, "msm.gzkp.kernel", 0));
    // Non-matching site: no fire.
    EXPECT_FALSE(shouldFire(FaultKind::Launch, "msm.serial", 0));
    EXPECT_FALSE(shouldFire(FaultKind::Launch, "ntt.cpu", 0));
}

TEST(FaultSim, EpochRerollsDecisions)
{
    ScopedFaultPlan guard("seed=5;launch@msm:16");
    std::vector<bool> before;
    for (std::uint64_t i = 0; i < 256; ++i)
        before.push_back(shouldFire(FaultKind::Launch, "msm", i));
    advanceEpoch();
    std::size_t changed = 0;
    for (std::uint64_t i = 0; i < 256; ++i) {
        if (before[i] != shouldFire(FaultKind::Launch, "msm", i))
            ++changed;
    }
    // The epoch is mixed into the hash: decisions re-roll rather
    // than replay (some change, it doesn't simply shift all).
    EXPECT_GT(changed, 0u);
}

TEST(FaultSim, LimitStopsFiringAcrossEpochs)
{
    ScopedFaultPlan guard("seed=5;launch@msm:1#3");
    std::size_t fires = 0;
    for (std::uint64_t i = 0; i < 10; ++i)
        fires += shouldFire(FaultKind::Launch, "msm", i);
    EXPECT_EQ(fires, 3u);
    // Limits are plan-lifetime, not per-epoch: a transient arm stays
    // exhausted after the recovery layer bumps the epoch.
    advanceEpoch();
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_FALSE(shouldFire(FaultKind::Launch, "msm", i));
    EXPECT_EQ(firedCount(), 3u);
}

TEST(FaultSim, ScopedPlansNestAndRestore)
{
    EXPECT_FALSE(active());
    {
        ScopedFaultPlan outer("seed=1;launch@a:1");
        EXPECT_TRUE(active());
        EXPECT_EQ(currentPlan().arms[0].site, "a");
        {
            ScopedFaultPlan inner("seed=2;alloc@b:1");
            EXPECT_EQ(currentPlan().arms[0].site, "b");
        }
        EXPECT_EQ(currentPlan().arms[0].site, "a");
        EXPECT_EQ(currentPlan().seed, 1u);
    }
    EXPECT_FALSE(active());
}

TEST(FaultSim, ScopedPlanThrowsOnMalformedSpec)
{
    EXPECT_THROW(ScopedFaultPlan("launch@msm:0"), StatusError);
    EXPECT_FALSE(active());
}

TEST(FaultSim, InstallFromEnv)
{
    ASSERT_EQ(setenv("GZKP_FAULTS", "seed=3;bucket@msm:2", 1), 0);
    ASSERT_TRUE(installFromEnv().isOk());
    EXPECT_TRUE(active());
    EXPECT_EQ(currentPlan().seed, 3u);
    clearPlan();

    ASSERT_EQ(setenv("GZKP_FAULTS", "not-a-plan", 1), 0);
    Status s = installFromEnv();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(active());

    unsetenv("GZKP_FAULTS");
    EXPECT_TRUE(installFromEnv().isOk()); // unset: OK, no-op
    EXPECT_FALSE(active());
}

TEST(FaultSim, ProbesThrowTypedErrors)
{
    ScopedFaultPlan guard("seed=4;alloc@big:1;launch@kern:1");
    try {
        checkAlloc("big.buffer", 0);
        FAIL() << "checkAlloc did not fire";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::kResourceExhausted);
    }
    try {
        checkLaunch("kern.bucket", 0);
        FAIL() << "checkLaunch did not fire";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
    }
    // Non-matching sites stay silent.
    EXPECT_NO_THROW(checkAlloc("other", 0));
    EXPECT_NO_THROW(checkLaunch("other", 0));
}

TEST(FaultSim, FlipBitChangesValueAndStaysCanonical)
{
    for (std::uint64_t salt = 1; salt < 300; salt += 7) {
        Fr x = Fr::fromUint64(salt * 1234567);
        Fr before = x;
        flipBit(x, salt);
        EXPECT_NE(x, before) << "salt " << salt;
        // Representation stays reduced below the modulus.
        EXPECT_TRUE(x.raw() < Fr::modulus());
    }
}

TEST(FaultSim, MaybeCorruptElementHitsExactlyOneElement)
{
    ScopedFaultPlan guard("seed=6;butterfly@ntt:1#1");
    std::vector<Fr> data(16);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = Fr::fromUint64(i + 1);
    auto before = data;
    ASSERT_TRUE(maybeCorruptElement(FaultKind::Butterfly, data.data(),
                                    data.size(), "ntt.cpu", 0));
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
        diffs += !(data[i] == before[i]);
    EXPECT_EQ(diffs, 1u);
    // Limit exhausted: the next probe is a no-op.
    auto after = data;
    EXPECT_FALSE(maybeCorruptElement(FaultKind::Butterfly, data.data(),
                                     data.size(), "ntt.cpu", 1));
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(data[i], after[i]);
}

/**
 * A corrupted bucket is never a silent no-op: an identity input (the
 * first bucket of a sparse MSM often is one) and an on-curve input
 * both come back as non-identity, off-curve points.
 */
template <typename Point>
void
expectCorruptionLeavesCurve()
{
    ScopedFaultPlan guard("seed=8;bucket@msm:1");
    Point id;
    ASSERT_TRUE(maybeCorruptPoint(FaultKind::Bucket, id,
                                  "msm.gzkp.bucket", 17));
    EXPECT_FALSE(id.isZero());
    EXPECT_FALSE(id.toAffine().onCurve());
    Point p = Point::generator().dbl();
    ASSERT_TRUE(maybeCorruptPoint(FaultKind::Bucket, p,
                                  "msm.gzkp.bucket", 18));
    EXPECT_FALSE(p.isZero());
    EXPECT_FALSE(p.toAffine().onCurve());
}

TEST(FaultSim, MaybeCorruptPointNeverLeavesAValidPoint)
{
    expectCorruptionLeavesCurve<ec::Bn254G1>();
    expectCorruptionLeavesCurve<ec::Bn254G2>();
}

} // namespace
