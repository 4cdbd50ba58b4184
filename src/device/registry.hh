/**
 * @file
 * Device registry: the topology spec of ProofService::Options::
 * deviceSpec (service_driver --devices) and its parser.
 *
 * Topology grammar (documented in DESIGN.md "Multi-device
 * scheduling"):
 *
 *     spec  := entry (',' entry)*
 *     entry := kind [':' count]            count >= 1, default 1
 *            | 'cpu' ':' N 't'             one CPU worker, N threads
 *     kind  := 'v100' | '1080ti' | 'cpu'
 *
 * Examples:
 *     v100:2,1080ti:1,cpu:4t   two V100s, one 1080 Ti, one 4-thread
 *                              CPU worker (four devices total)
 *     cpu:4                    four single-thread CPU workers
 *     cpu:1                    the single-lane reference topology
 *
 * `cpu:N` multiplies *workers* (N independent failure domains each
 * with one runtime thread); `cpu:Nt` multiplies *threads inside one
 * worker* (one failure domain, N-way deterministic runtime
 * parallelism). Instance names are `<kind>.<i>` with a per-kind
 * counter, so "v100:2,v100:1" yields v100.0, v100.1, v100.2.
 */

#ifndef GZKP_DEVICE_REGISTRY_HH
#define GZKP_DEVICE_REGISTRY_HH

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "device/device.hh"
#include "status/status.hh"

namespace gzkp::device {

/** Upper bound on parsed devices (a typo guard, not a real limit). */
inline constexpr std::size_t kMaxDevices = 64;

/**
 * Parse a topology spec into an ordered device list. Device order is
 * significant: it breaks placement ties (lower index wins), so the
 * same spec always yields the same schedule.
 */
inline StatusOr<std::vector<DeviceSpec>>
parseTopology(std::string_view spec)
{
    std::vector<DeviceSpec> out;
    std::size_t nV100 = 0, n1080 = 0, nCpu = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        std::string_view entry = spec.substr(
            pos, comma == std::string_view::npos ? spec.size() - pos
                                                 : comma - pos);
        pos = comma == std::string_view::npos ? spec.size() + 1
                                              : comma + 1;
        if (entry.empty()) {
            if (spec.empty())
                break;
            return invalidArgumentError(
                "device.topology: empty entry in spec '" +
                std::string(spec) + "'");
        }
        std::size_t colon = entry.find(':');
        std::string_view kind = entry.substr(0, colon);
        std::size_t count = 1;
        bool cpuThreads = false;
        if (colon != std::string_view::npos) {
            std::string_view num = entry.substr(colon + 1);
            if (!num.empty() && (num.back() == 't' || num.back() == 'T')) {
                cpuThreads = true;
                num.remove_suffix(1);
            }
            if (num.empty())
                return invalidArgumentError(
                    "device.topology: missing count in entry '" +
                    std::string(entry) + "'");
            count = 0;
            for (char c : num) {
                if (!std::isdigit(static_cast<unsigned char>(c)))
                    return invalidArgumentError(
                        "device.topology: bad count in entry '" +
                        std::string(entry) + "'");
                count = count * 10 + std::size_t(c - '0');
                if (count > 4096)
                    break; // overflow guard; rejected below
            }
            if (count == 0)
                return invalidArgumentError(
                    "device.topology: zero count in entry '" +
                    std::string(entry) + "'");
        }
        if (cpuThreads && kind != "cpu")
            return invalidArgumentError(
                "device.topology: 't' thread suffix is only valid "
                "for cpu entries ('" + std::string(entry) + "')");
        if (kind == "v100") {
            for (std::size_t i = 0; i < count; ++i)
                out.push_back(DeviceSpec::v100(nV100++));
        } else if (kind == "1080ti") {
            for (std::size_t i = 0; i < count; ++i)
                out.push_back(DeviceSpec::gtx1080ti(n1080++));
        } else if (kind == "cpu") {
            if (cpuThreads) {
                out.push_back(DeviceSpec::cpu(nCpu++, count));
            } else {
                for (std::size_t i = 0; i < count; ++i)
                    out.push_back(DeviceSpec::cpu(nCpu++, 1));
            }
        } else {
            return invalidArgumentError(
                "device.topology: unknown device kind '" +
                std::string(kind) + "' (expected v100, 1080ti, cpu)");
        }
        if (out.size() > kMaxDevices)
            return invalidArgumentError(
                "device.topology: more than " +
                std::to_string(kMaxDevices) + " devices");
    }
    if (out.empty())
        return invalidArgumentError(
            "device.topology: empty spec");
    return out;
}

} // namespace gzkp::device

#endif // GZKP_DEVICE_REGISTRY_HH
