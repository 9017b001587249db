#include "router/vc_state.hh"

#include "base/logging.hh"

namespace mmr
{

void
VcState::release()
{
    mmr_assert(fifo.empty(), "releasing VC with ", fifo.size(),
               " buffered flits");
    mmr_assert(grantsPending == 0, "releasing VC with pending grants");
    connId = kInvalidConn;
    klass = TrafficClass::BestEffort;
    outputPort = kInvalidPort;
    outputVc = kInvalidVc;
    cbrAlloc = vbrPerm = vbrPeak = 0;
    interArrivalCycles_ = 0.0;
    priority = 0;
    servicedThisRound = 0;
    releaseEmpty = ownsIn = ownsOut = false;
    headEligibleAt = 0;
}

void
VcState::bindCbr(ConnId conn_, unsigned alloc_cycles,
                 double inter_arrival)
{
    mmr_assert(!bound(), "binding an already-bound VC");
    connId = conn_;
    klass = TrafficClass::CBR;
    cbrAlloc = alloc_cycles;
    interArrivalCycles_ = inter_arrival;
}

void
VcState::bindVbr(ConnId conn_, unsigned perm_cycles, unsigned peak_cycles,
                 double inter_arrival, int user_priority)
{
    mmr_assert(!bound(), "binding an already-bound VC");
    mmr_assert(peak_cycles >= perm_cycles,
               "VBR peak below permanent bandwidth");
    connId = conn_;
    klass = TrafficClass::VBR;
    vbrPerm = perm_cycles;
    vbrPeak = peak_cycles;
    interArrivalCycles_ = inter_arrival;
    priority = user_priority;
}

void
VcState::bindBestEffort(ConnId conn_)
{
    mmr_assert(!bound(), "binding an already-bound VC");
    connId = conn_;
    klass = TrafficClass::BestEffort;
}

void
VcState::bindControl(ConnId conn_)
{
    mmr_assert(!bound(), "binding an already-bound VC");
    connId = conn_;
    klass = TrafficClass::Control;
}

void
VcState::setMapping(PortId out_port, VcId out_vc)
{
    outputPort = out_port;
    outputVc = out_vc;
}

void
VcState::setVbrAlloc(unsigned perm, unsigned peak)
{
    mmr_assert(peak >= perm, "VBR peak below permanent bandwidth");
    vbrPerm = perm;
    vbrPeak = peak;
}

} // namespace mmr
