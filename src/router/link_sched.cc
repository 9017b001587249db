#include "router/link_sched.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mmr
{

LinkScheduler::LinkScheduler(PortId port, VcMemory *memory,
                             unsigned num_ports,
                             PriorityPolicy policy,
                             unsigned cycles_per_round)
    : inPort(port), mem(memory), numOutPorts(num_ports),
      prioPolicy(policy), roundLen(cycles_per_round),
      nextRoundStart(cycles_per_round)
{
    mmr_assert(mem != nullptr, "link scheduler needs a VC memory");
    mmr_assert(roundLen > 0, "round length must be positive");
    // One candidate slot per output port (the dedup below): the
    // scratch bounds are architectural, so size them up front rather
    // than letting a congestion peak allocate mid-measurement.
    scratch.reserve(numOutPorts);
    touchedOutputs.reserve(numOutPorts);
}

void
LinkScheduler::rollRoundIfNeeded(Cycle now)
{
    if (now < nextRoundStart)
        return;
    do {
        nextRoundStart += roundLen;
        ++rounds;
    } while (now >= nextRoundStart);
    // One sweep regardless of how many boundaries were crossed: the
    // counters are simply zeroed, so catching up multiple rounds at
    // once is equivalent.
    for (VcId v = 0; v < mem->numVcs(); ++v)
        mem->vc(v).newRound();
}

bool
LinkScheduler::eligible(const VcState &vc,
                        const CreditManager &credits) const
{
    if (!vc.bound() || !vc.mapped() || !vc.hasUngrantedFlit())
        return false;
    // credits_available: space downstream on the mapped output VC.
    if (!credits.hasCredit(vc.outPort(), vc.outVc()))
        return false;
    // Per-round quota: grants issued this round must stay within the
    // allocation (CBR) or the peak (VBR); §4.3.
    const unsigned quota = vc.quotaThisRound();
    if (quota != ~0u && vc.serviced() + vc.pendingGrants() >= quota)
        return false;
    return true;
}

BitVector
LinkScheduler::eligibleMask(Cycle now, const CreditManager &credits) const
{
    (void)now;
    // Word-at-a-time walk (forEachSet snapshots each word, so
    // clearing bits of the word being visited is safe).
    BitVector mask = mem->flitsAvailable();
    mask.forEachSet([&](std::size_t v) {
        if (!eligible(mem->vc(static_cast<VcId>(v)), credits))
            mask.clear(v);
    });
    return mask;
}

// mmr-lint: allow(hot-path-alloc) amortized: scratch/touchedOutputs/
// bestPerOutput and the caller-owned `out` all keep their capacity
// across cycles (verified dynamically by test_zero_alloc).
void
LinkScheduler::collectCandidates(Cycle now, unsigned max_candidates,
                                 const CreditManager &credits,
                                 std::vector<Candidate> &out)
{
    rollRoundIfNeeded(now);

    const auto by_rank = [](const Candidate &a, const Candidate &b) {
        if (a.tier != b.tier)
            return a.tier > b.tier;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.tie > b.tie;
    };

    // One candidate slot per output port: offering two channels bound
    // for the same output from the same input is redundant (only one
    // flit can cross the input link per cycle), and spreading the
    // candidate set over distinct outputs is what "increases the
    // probability of fully utilizing the switch bandwidth" (§4.4).
    if (bestPerOutput.empty())
        bestPerOutput.assign(numOutPorts, kInvalidVc);
    scratch.clear();
    touchedOutputs.clear();

    // The §4.1 status-vector AND, computed where it is used: every
    // eligible VC holds a flit, so walk flits_available in VC order
    // and test the rest of the conjunction per set bit.
    mem->flitsAvailable().forEachSet([&](std::size_t i) {
        const auto v = static_cast<VcId>(i);
        const VcState &vc = mem->vc(v);
        if (!eligible(vc, credits))
            return;

        Candidate c;
        c.in = inPort;
        c.vc = v;
        c.out = vc.outPort();
        c.outVc = vc.outVc();
        c.conn = vc.conn();
        c.tier = static_cast<int>(serviceTier(vc));

        if (c.tier == static_cast<int>(ServiceTier::VbrExcess)) {
            // §4.3: excess bandwidth is serviced connection by
            // connection in user-priority order; a stable key (not the
            // per-cycle aging priority) realizes "completely service
            // one connection before moving to the next".
            c.prio = static_cast<double>(vc.userPriority()) * 1e6 -
                     static_cast<double>(vc.conn());
        } else {
            c.prio = headPriority(prioPolicy, vc, now);
        }
        c.tie = vc.tieBreak();

        const std::size_t slot = c.out;
        if (bestPerOutput[slot] == kInvalidVc) {
            bestPerOutput[slot] = static_cast<VcId>(scratch.size());
            touchedOutputs.push_back(slot);
            scratch.push_back(c);
        } else if (by_rank(c, scratch[bestPerOutput[slot]])) {
            scratch[bestPerOutput[slot]] = c;
        }
    });
    for (std::size_t slot : touchedOutputs)
        bestPerOutput[slot] = kInvalidVc;

    if (scratch.size() > max_candidates) {
        std::partial_sort(scratch.begin(),
                          scratch.begin() + max_candidates, scratch.end(),
                          by_rank);
    } else {
        std::sort(scratch.begin(), scratch.end(), by_rank);
    }

    const std::size_t n =
        std::min<std::size_t>(max_candidates, scratch.size());
    out.insert(out.end(), scratch.begin(), scratch.begin() + n);
}

} // namespace mmr
