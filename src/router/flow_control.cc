#include "router/flow_control.hh"

#include <cmath>

#include "base/logging.hh"
#include "sim/invariant.hh"

namespace mmr
{

CreditManager::CreditManager(unsigned ports, unsigned vcs,
                             unsigned initial_credits)
    : numPorts(ports), numVcs(vcs), initial(initial_credits),
      counters(static_cast<std::size_t>(ports) * vcs, initial_credits)
{
    mmr_assert(ports > 0 && vcs > 0, "degenerate credit manager");
    mmr_assert(initial_credits > 0, "need at least one credit per VC");
}

void
CreditManager::audit(const CensusFn &census) const
{
    if (infinite)
        return; // counters are frozen at the initial depth
    std::uint64_t outstanding = 0;
    for (PortId p = 0; p < numPorts; ++p) {
        for (VcId v = 0; v < numVcs; ++v) {
            const unsigned c = counters[index(p, v)];
            if (c > initial) {
                mmr_invariant_violated(
                    "credit-ledger", "(", p, ",", v, ") holds ", c,
                    " credits, above the downstream depth ", initial);
            }
            outstanding += initial - c;
            if (census) {
                const unsigned occ = census(p, v);
                if (c + occ != initial) {
                    mmr_invariant_violated(
                        "credit-ledger", "(", p, ",", v, "): ", c,
                        " credits + ", occ,
                        " downstream flits != depth ", initial);
                }
            }
        }
    }
    if (statConsumed < statReplenished ||
        outstanding != statConsumed - statReplenished) {
        mmr_invariant_violated(
            "credit-ledger", "outstanding census ", outstanding,
            " != consumed ", statConsumed, " - replenished ",
            statReplenished);
    }
}

void
CreditManager::registerInvariants(InvariantChecker &chk, CensusFn census,
                                  unsigned period,
                                  const std::string &prefix) const
{
    chk.add(prefix + "credit-ledger",
            [this, census = std::move(census)](Cycle) { audit(census); },
            period);
}

namespace
{
// arg is carried as signed 16.16 fixed point in the low 32 bits.
constexpr double kFixedScale = 65536.0;
} // namespace

std::uint64_t
ControlWord::encode() const
{
    const auto op_bits = static_cast<std::uint64_t>(op) & 0xff;
    const auto conn_bits = static_cast<std::uint64_t>(conn) & 0xffffff;
    const double clamped =
        std::min(32767.0, std::max(-32768.0, arg));
    const auto arg_fixed = static_cast<std::int32_t>(
        std::lround(clamped * kFixedScale));
    const auto arg_bits =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(arg_fixed));
    return (op_bits << 56) | (conn_bits << 32) | arg_bits;
}

ControlWord
ControlWord::decode(std::uint64_t bits)
{
    ControlWord w;
    w.op = static_cast<ControlOp>((bits >> 56) & 0xff);
    w.conn = static_cast<ConnId>((bits >> 32) & 0xffffff);
    const auto arg_fixed =
        static_cast<std::int32_t>(static_cast<std::uint32_t>(bits));
    w.arg = static_cast<double>(arg_fixed) / kFixedScale;
    return w;
}

bool
ControlWord::operator==(const ControlWord &o) const
{
    return op == o.op && conn == o.conn &&
           std::fabs(arg - o.arg) < 1.0 / kFixedScale;
}

} // namespace mmr
