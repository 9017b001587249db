#include "router/admission.hh"

#include <cmath>

#include "base/logging.hh"

namespace mmr
{

AdmissionController::AdmissionController(unsigned num_ports,
                                         unsigned cycles_per_round,
                                         double concurrency_factor,
                                         double best_effort_reserve)
    : concurrencyFactor(concurrency_factor), links(num_ports)
{
    mmr_assert(num_ports > 0, "admission needs at least one port");
    mmr_assert(cycles_per_round > 0, "round length must be positive");
    mmr_assert(concurrency_factor >= 1.0, "concurrency factor < 1");
    mmr_assert(best_effort_reserve >= 0.0 && best_effort_reserve < 1.0,
               "best-effort reserve out of [0,1)");
    reservable = static_cast<unsigned>(std::floor(
        static_cast<double>(cycles_per_round) *
        (1.0 - best_effort_reserve)));
}

AdmissionController::LinkRegisters &
AdmissionController::regs(PortId out)
{
    mmr_assert(out < links.size(), "output port ", out, " out of range");
    return links[out];
}

const AdmissionController::LinkRegisters &
AdmissionController::regs(PortId out) const
{
    mmr_assert(out < links.size(), "output port ", out, " out of range");
    return links[out];
}

bool
AdmissionController::tryAdmitCbr(PortId out, unsigned alloc_cycles)
{
    LinkRegisters &r = regs(out);
    if (r.allocated + alloc_cycles > reservable)
        return false;
    r.allocated += alloc_cycles;
    return true;
}

void
AdmissionController::releaseCbr(PortId out, unsigned alloc_cycles)
{
    LinkRegisters &r = regs(out);
    mmr_assert(r.allocated >= alloc_cycles,
               "releasing more than allocated");
    r.allocated -= alloc_cycles;
}

bool
AdmissionController::tryAdmitVbr(PortId out, unsigned perm_cycles,
                                 unsigned peak_cycles)
{
    mmr_assert(peak_cycles >= perm_cycles, "VBR peak below permanent");
    LinkRegisters &r = regs(out);
    // Condition (i): permanent bandwidth fits in the round.
    if (r.allocated + perm_cycles > reservable)
        return false;
    // Condition (ii): total peak within round x concurrency factor.
    const double peak_limit =
        static_cast<double>(reservable) * concurrencyFactor;
    if (static_cast<double>(r.peak + peak_cycles) > peak_limit)
        return false;
    r.allocated += perm_cycles;
    r.peak += peak_cycles;
    return true;
}

void
AdmissionController::releaseVbr(PortId out, unsigned perm_cycles,
                                unsigned peak_cycles)
{
    LinkRegisters &r = regs(out);
    mmr_assert(r.allocated >= perm_cycles && r.peak >= peak_cycles,
               "releasing more VBR bandwidth than allocated");
    r.allocated -= perm_cycles;
    r.peak -= peak_cycles;
}

bool
AdmissionController::renegotiateCbr(PortId out, unsigned old_cycles,
                                    unsigned new_cycles)
{
    LinkRegisters &r = regs(out);
    mmr_assert(r.allocated >= old_cycles,
               "renegotiating more than allocated");
    const unsigned base = r.allocated - old_cycles;
    if (base + new_cycles > reservable)
        return false;
    r.allocated = base + new_cycles;
    return true;
}

unsigned
AdmissionController::allocatedCycles(PortId out) const
{
    return regs(out).allocated;
}

unsigned
AdmissionController::peakCycles(PortId out) const
{
    return regs(out).peak;
}

unsigned
AdmissionController::availableCycles(PortId out) const
{
    const LinkRegisters &r = regs(out);
    return r.allocated >= reservable ? 0 : reservable - r.allocated;
}

} // namespace mmr
