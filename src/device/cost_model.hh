/**
 * @file
 * Seeded per-stage cost model for device placement.
 *
 * Placement needs an a-priori estimate of "what would this proof
 * stage cost on that device". The estimates come straight from the
 * gpusim roofline model the benches already trust: the POLY stage is
 * seven GZKP NTTs at the circuit's domain size, the MSM stage is the
 * paper's five MSMs (four sparse witness MSMs -- one of them in G2,
 * modeled with the shared kG2CostFactor -- plus the dense h-query MSM).
 * CPU workers use the calibrated Xeon cost model with the worker's
 * thread budget.
 *
 * The scheduler places on these seeds alone; only a `device.slow`
 * fire scales one placement's estimate. No wall-clock or observed
 * sample enters placement, so the schedule is a deterministic
 * function of the call sequence and the fault plan.
 */

#ifndef GZKP_DEVICE_COST_MODEL_HH
#define GZKP_DEVICE_COST_MODEL_HH

#include <cstddef>

#include "device/device.hh"
#include "gpusim/perf_model.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "ntt/ntt_cpu.hh"
#include "ntt/ntt_gpu.hh"
#include "zkp/groth16.hh"

namespace gzkp::device {

/** The two schedulable stages of one Groth16 proof. */
enum class StageKind { Poly = 0, Msm = 1 };

inline const char *
name(StageKind s)
{
    switch (s) {
    case StageKind::Poly: return "poly";
    case StageKind::Msm: return "msm";
    }
    return "?";
}

/** G2 MSM cost relative to G1 at the same scale (Fp2 arithmetic). */
inline constexpr double kG2CostFactor = 2.8;

/** The size parameters a stage estimate depends on. */
struct ProofShape {
    std::size_t domainLog = 0; //!< POLY: seven NTTs of 2^domainLog
    std::size_t msmSize = 0;   //!< witness MSM length (numVars)
    std::size_t hSize = 0;     //!< dense h-query MSM length
};

/** Seeded stage-cost estimates for one curve family. */
template <typename Family>
struct CostModel {
    using G16 = zkp::Groth16<Family>;
    using Fr = typename Family::Fr;
    using G1Cfg = typename Family::G1Cfg;

    static ProofShape
    shapeOf(const typename G16::ProvingKey &pk)
    {
        ProofShape s;
        s.domainLog = pk.domainLog;
        s.msmSize = pk.numVars;
        s.hSize = pk.hQuery.size();
        return s;
    }

    /** Modeled seconds of `stage` at `shape` on `dev` (seed value). */
    static double
    seedSeconds(StageKind stage, const ProofShape &shape,
                const DeviceSpec &dev)
    {
        if (dev.kind == DeviceKind::SimGpu)
            return gpuSeconds(stage, shape, dev.gpu);
        return cpuSeconds(stage, shape, dev.threads);
    }

  private:
    static double
    gpuSeconds(StageKind stage, const ProofShape &shape,
               const gpusim::DeviceConfig &gpu)
    {
        if (stage == StageKind::Poly) {
            ntt::GzkpNtt<Fr> eng;
            return 7.0 *
                ntt::nttModelSeconds(eng.stats(shape.domainLog, gpu),
                                     gpu, gpusim::Backend::FpuLib);
        }
        msm::GzkpMsm<G1Cfg> eng({}, gpu);
        double m_wit =
            shape.msmSize == 0
                ? 0.0
                : gpusim::modelSeconds(eng.gpuStats(shape.msmSize, gpu),
                                       gpu, gpusim::Backend::FpuLib);
        double m_h =
            shape.hSize == 0
                ? 0.0
                : gpusim::modelSeconds(eng.gpuStats(shape.hSize, gpu),
                                       gpu, gpusim::Backend::FpuLib);
        // A, B1 in G1, B2 in G2, the L query, and the dense h query.
        return (2.0 + kG2CostFactor) * m_wit + m_wit + m_h;
    }

    static double
    cpuSeconds(StageKind stage, const ProofShape &shape,
               std::size_t threads)
    {
        gpusim::CpuConfig cpu;
        cpu.threads = threads == 0 ? 1 : threads;
        if (stage == StageKind::Poly) {
            ntt::LibsnarkStyleNtt<Fr> eng(false);
            return 7.0 *
                gpusim::cpuModelSeconds(eng.stats(shape.domainLog),
                                        cpu);
        }
        msm::PippengerSerial<G1Cfg> eng;
        double m_wit =
            shape.msmSize == 0
                ? 0.0
                : gpusim::cpuModelSeconds(eng.stats(shape.msmSize),
                                          cpu);
        double m_h = shape.hSize == 0
            ? 0.0
            : gpusim::cpuModelSeconds(eng.stats(shape.hSize), cpu);
        return (2.0 + kG2CostFactor) * m_wit + m_wit + m_h;
    }
};

} // namespace gzkp::device

#endif // GZKP_DEVICE_COST_MODEL_HH
