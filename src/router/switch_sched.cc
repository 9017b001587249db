#include "router/switch_sched.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "base/logging.hh"
#include "sim/invariant.hh"

namespace mmr
{

namespace
{

/**
 * Port-usage mask for legality checks.  Switches up to 64 ports wide
 * fit in one machine word, so the every-cycle matching audit runs
 * without touching the heap; wider switches (not used by any current
 * configuration) fall back to a bit vector.
 */
class PortUseMask
{
  public:
    explicit PortUseMask(unsigned num_ports)
    {
        if (num_ports > 64)
            wide.resize(num_ports);
    }

    /** Mark @p p used; returns false when it was already used. */
    bool
    claim(unsigned p)
    {
        if (wide.size() == 0) {
            const std::uint64_t bit = std::uint64_t{1} << p;
            if (narrow & bit)
                return false;
            narrow |= bit;
            return true;
        }
        if (wide.test(p))
            return false;
        wide.set(p);
        return true;
    }

  private:
    std::uint64_t narrow = 0;
    BitVector wide;
};

} // namespace

bool
SwitchScheduler::validate(const Matching &m, unsigned num_ports,
                          bool allow_output_sharing)
{
    PortUseMask in_used(num_ports);
    PortUseMask out_used(num_ports);
    for (const Candidate &c : m) {
        if (c.in >= num_ports || c.out >= num_ports)
            return false;
        if (!in_used.claim(c.in))
            return false;
        if (!allow_output_sharing && !out_used.claim(c.out))
            return false;
    }
    return true;
}

void
SwitchScheduler::auditMatching(const Matching &m, unsigned num_ports,
                               bool allow_output_sharing)
{
    PortUseMask in_used(num_ports);
    PortUseMask out_used(num_ports);
    for (const Candidate &c : m) {
        if (c.in >= num_ports || c.out >= num_ports) {
            mmr_invariant_violated("matching-validity", "grant (",
                                   c.in, " -> ", c.out,
                                   ") references a port outside the ",
                                   num_ports, "-port switch");
        }
        if (!in_used.claim(c.in)) {
            mmr_invariant_violated("matching-validity", "input port ",
                                   c.in, " matched twice in one cycle");
        }
        if (!allow_output_sharing && !out_used.claim(c.out)) {
            mmr_invariant_violated("matching-validity",
                                   "output port ", c.out,
                                   " matched twice in one cycle");
        }
    }
}

std::unique_ptr<SwitchScheduler>
SwitchScheduler::create(const RouterConfig &cfg)
{
    switch (cfg.scheduler) {
      case SchedulerKind::BiasedPriority:
      case SchedulerKind::FixedPriority:
      case SchedulerKind::AgePriority:
        return std::make_unique<GreedyPriorityScheduler>(cfg.numPorts);
      case SchedulerKind::OutputDriven:
        return std::make_unique<OutputDrivenScheduler>(
            cfg.numPorts, cfg.schedIterations);
      case SchedulerKind::Autonet:
        return std::make_unique<AutonetScheduler>(cfg.numPorts,
                                                  cfg.schedIterations);
      case SchedulerKind::Islip:
        return std::make_unique<IslipScheduler>(cfg.numPorts,
                                                cfg.schedIterations);
      case SchedulerKind::Perfect:
        return std::make_unique<PerfectSwitchScheduler>();
    }
    mmr_panic("unhandled scheduler kind");
}

GreedyPriorityScheduler::GreedyPriorityScheduler(unsigned num_ports)
    : numPorts(num_ports), req(num_ports), holder(num_ports),
      choice(num_ports), tried(num_ports), visited(num_ports),
      inTaken(num_ports), outTaken(num_ports)
{
}

namespace
{

/**
 * Kuhn-style augmenting search: try to route input @p in to one of
 * its candidate outputs, displacing lower-stage assignments along an
 * alternating path.  @p holder maps each output to the input holding
 * it (or numPorts when free), @p choice records which candidate each
 * input ended up with.
 */
bool
augment(PortId in, const std::vector<std::vector<const Candidate *>> &req,
        std::vector<unsigned> &holder,
        std::vector<const Candidate *> &choice,
        std::vector<bool> &visited, const std::vector<bool> &out_masked,
        unsigned num_ports)
{
    for (const Candidate *c : req[in]) {
        const PortId out = c->out;
        if (out_masked[out] || visited[out])
            continue;
        visited[out] = true;
        if (holder[out] == num_ports ||
            augment(static_cast<PortId>(holder[out]), req, holder, choice,
                    visited, out_masked, num_ports)) {
            holder[out] = in;
            choice[in] = c;
            return true;
        }
    }
    return false;
}

/**
 * Merge-path variant of augment(): input @p in's request list is the
 * contiguous run per_input[in][seg_begin[in], seg_end[in]) — the
 * current tier's slice of its pre-sorted candidate list — traversed in
 * place (no per-tier pointer vectors).  Skipping out_masked outputs
 * here is equivalent to filtering them while building req[]: both see
 * the tier-entry snapshot of out_masked, in the same candidate order.
 */
bool
augmentRun(unsigned in,
           const std::vector<std::vector<Candidate>> &per_input,
           const std::uint32_t *seg_begin, const std::uint32_t *seg_end,
           std::vector<unsigned> &holder,
           std::vector<const Candidate *> &choice,
           std::vector<bool> &visited, const std::vector<bool> &out_masked,
           unsigned num_ports)
{
    const Candidate *base = per_input[in].data();
    for (std::uint32_t i = seg_begin[in]; i < seg_end[in]; ++i) {
        const Candidate *c = base + i;
        const PortId out = c->out;
        if (out_masked[out] || visited[out])
            continue;
        visited[out] = true;
        if (holder[out] == num_ports ||
            augmentRun(holder[out], per_input, seg_begin, seg_end,
                       holder, choice, visited, out_masked, num_ports)) {
            holder[out] = in;
            choice[in] = c;
            return true;
        }
    }
    return false;
}

} // namespace

// mmr-lint: allow(hot-path-alloc) amortized: the matching and
// any per-call scratch reuse caller/member capacity across
// cycles (verified dynamically by test_zero_alloc).
void
GreedyPriorityScheduler::scheduleInto(
    const std::vector<std::vector<Candidate>> &per_input,
    Rng &rng, Matching &out)
{
    (void)rng; // tie-break randomness is pre-drawn in Candidate::tie
    out.clear();
    std::fill(inTaken.begin(), inTaken.end(), false);
    std::fill(outTaken.begin(), outTaken.end(), false);

    // Router-shaped inputs — list p holds input port p's candidates,
    // already sorted by (tier, prio, tie) by the link scheduler, with
    // in-range ports — take the merge path, which skips the global
    // flat sort.  Anything else (hand-built test inputs) falls back to
    // the general path.  The scan is cheap: the lists were written
    // this cycle and are still cache-hot.
    bool router_shaped = per_input.size() <= numPorts;
    for (std::size_t p = 0; router_shaped && p < per_input.size(); ++p) {
        const auto &cands = per_input[p];
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const Candidate &c = cands[i];
            if (c.in != static_cast<PortId>(p) || c.out >= numPorts) {
                router_shaped = false;
                break;
            }
            if (i == 0)
                continue;
            const Candidate &prev = cands[i - 1];
            const bool in_order =
                c.tier < prev.tier ||
                (c.tier == prev.tier &&
                 (c.prio < prev.prio ||
                  (c.prio == prev.prio && c.tie <= prev.tie)));
            if (!in_order) {
                router_shaped = false;
                break;
            }
        }
    }

    if (router_shaped)
        scheduleMerge(per_input, out);
    else
        scheduleFlat(per_input, out);
}

// mmr-lint: allow(hot-path-alloc) amortized: the matching and
// any per-call scratch reuse caller/member capacity across
// cycles (verified dynamically by test_zero_alloc).
void
GreedyPriorityScheduler::scheduleFlat(
    const std::vector<std::vector<Candidate>> &per_input, Matching &out)
{
    flat.clear();
    for (const auto &cands : per_input)
        for (const Candidate &c : cands)
            flat.push_back(&c);

    // Arbitrate by (tier, priority, stable tie).  Service tiers are
    // strict (§4.3): the matching is computed tier by tier, from
    // control down to best effort, and a lower tier may never displace
    // or reroute a grant won by a higher tier.  Within one tier,
    // candidates are admitted in priority order but later candidates
    // may re-route earlier same-tier inputs to alternates (augmenting
    // paths), yielding a maximum matching for the tier — the
    // "maximize the probability of assigning virtual channels to
    // every output link" goal of §4.4.
    std::sort(flat.begin(), flat.end(),
              [](const Candidate *a, const Candidate *b) {
                  if (a->tier != b->tier)
                      return a->tier > b->tier;
                  if (a->prio != b->prio)
                      return a->prio > b->prio;
                  return a->tie > b->tie;
              });

    std::size_t tier_begin = 0;
    while (tier_begin < flat.size()) {
        const int tier = flat[tier_begin]->tier;
        std::size_t tier_end = tier_begin;
        while (tier_end < flat.size() && flat[tier_end]->tier == tier)
            ++tier_end;

        // Per-input candidate lists for this tier, in priority order,
        // restricted to ports still free after the higher tiers.
        for (PortId p = 0; p < numPorts; ++p) {
            req[p].clear();
            holder[p] = numPorts;
            choice[p] = nullptr;
            tried[p] = false;
        }
        for (std::size_t i = tier_begin; i < tier_end; ++i) {
            const Candidate &c = *flat[i];
            if (c.in < numPorts && !inTaken[c.in] && !outTaken[c.out])
                req[c.in].push_back(&c);
        }
        for (std::size_t i = tier_begin; i < tier_end; ++i) {
            const Candidate &c = *flat[i];
            if (c.in >= numPorts || inTaken[c.in] || tried[c.in])
                continue;
            tried[c.in] = true; // one augmenting attempt per input
            std::fill(visited.begin(), visited.end(), false);
            augment(c.in, req, holder, choice, visited, outTaken,
                    numPorts);
        }
        for (PortId in = 0; in < numPorts; ++in) {
            if (choice[in] != nullptr) {
                out.push_back(*choice[in]);
                inTaken[in] = true;
                outTaken[choice[in]->out] = true;
            }
        }
        tier_begin = tier_end;
    }
}

// mmr-lint: allow(hot-path-alloc) amortized: segPos/segBegin/segEnd/
// attemptOrder are members sized once per port count; their capacity
// persists across cycles (verified dynamically by test_zero_alloc).
void
GreedyPriorityScheduler::scheduleMerge(
    const std::vector<std::vector<Candidate>> &per_input, Matching &out)
{
    const auto nin = static_cast<unsigned>(per_input.size());
    segPos.assign(nin, 0);
    segBegin.resize(nin);
    segEnd.resize(nin);
    if (attemptOrder.size() < nin)
        attemptOrder.resize(nin);

    // Tiers arrive in descending order within every list, so the
    // highest tier among the per-input cursors is the next tier the
    // flat sort would have produced; its candidates are exactly the
    // per-input runs at the cursors.
    for (;;) {
        constexpr int kNoTier = std::numeric_limits<int>::min();
        int tier = kNoTier;
        for (unsigned p = 0; p < nin; ++p) {
            if (segPos[p] < per_input[p].size())
                tier = std::max(tier, per_input[p][segPos[p]].tier);
        }
        if (tier == kNoTier)
            break;

        // Slice this tier's run out of each list.  The runs double as
        // the per-input request lists: they are already in (prio, tie)
        // order, which is what the flat path's req[] held.
        unsigned n_attempt = 0;
        for (unsigned p = 0; p < nin; ++p) {
            const auto &cands = per_input[p];
            segBegin[p] = segEnd[p] = segPos[p];
            if (segPos[p] < cands.size() &&
                cands[segPos[p]].tier == tier) {
                std::uint32_t e = segPos[p];
                while (e < cands.size() && cands[e].tier == tier)
                    ++e;
                segEnd[p] = e;
                segPos[p] = e;
                attemptOrder[n_attempt++] = p;
            }
        }

        // The flat path attempts one augmenting search per input, in
        // the order of each input's first appearance in the globally
        // sorted candidate stream — i.e. by the rank of its best
        // candidate.  Sorting one head per input reproduces it.
        std::sort(attemptOrder.begin(),
                  attemptOrder.begin() + n_attempt,
                  [&](unsigned a, unsigned b) {
                      const Candidate &ca = per_input[a][segBegin[a]];
                      const Candidate &cb = per_input[b][segBegin[b]];
                      if (ca.prio != cb.prio)
                          return ca.prio > cb.prio;
                      return ca.tie > cb.tie;
                  });

        for (PortId p = 0; p < numPorts; ++p) {
            holder[p] = numPorts;
            choice[p] = nullptr;
        }
        for (unsigned k = 0; k < n_attempt; ++k) {
            const unsigned in = attemptOrder[k];
            if (inTaken[in])
                continue;
            std::fill(visited.begin(), visited.end(), false);
            augmentRun(in, per_input, segBegin.data(), segEnd.data(),
                       holder, choice, visited, outTaken, numPorts);
        }
        for (PortId in = 0; in < numPorts; ++in) {
            if (choice[in] != nullptr) {
                out.push_back(*choice[in]);
                inTaken[in] = true;
                outTaken[choice[in]->out] = true;
            }
        }
    }
}

OutputDrivenScheduler::OutputDrivenScheduler(unsigned num_ports,
                                             unsigned iterations)
    : numPorts(num_ports), iters(iterations), grant(num_ports),
      accept(num_ports), grantMask(num_ports), acceptMask(num_ports),
      inUsed(num_ports), outUsed(num_ports)
{
    mmr_assert(iters >= 1, "need at least one matching iteration");
}

// mmr-lint: allow(hot-path-alloc) amortized: the matching and
// any per-call scratch reuse caller/member capacity across
// cycles (verified dynamically by test_zero_alloc).
void
OutputDrivenScheduler::scheduleInto(
    const std::vector<std::vector<Candidate>> &per_input,
    Rng &rng, Matching &out)
{
    (void)rng;
    out.clear();
    std::fill(inUsed.begin(), inUsed.end(), false);
    std::fill(outUsed.begin(), outUsed.end(), false);

    const auto better = [](const Candidate *a, const Candidate *b) {
        if (b == nullptr)
            return true;
        if (a->tier != b->tier)
            return a->tier > b->tier;
        if (a->prio != b->prio)
            return a->prio > b->prio;
        return a->tie > b->tie;
    };

    for (unsigned it = 0; it < iters; ++it) {
        // Grant: every free output picks the best request aimed at it.
        // grant[] entries are live only where grantMask is set, so the
        // old O(N) pointer fill is a word-wide clear.
        grantMask.clearAll();
        for (const auto &cands : per_input) {
            for (const Candidate &c : cands) {
                if (c.in >= numPorts || inUsed[c.in] || outUsed[c.out])
                    continue;
                if (!grantMask.test(c.out) ||
                    better(&c, grant[c.out])) {
                    grant[c.out] = &c;
                    grantMask.set(c.out);
                }
            }
        }
        // Accept: every input takes the best grant it received.  Only
        // granted outputs are visited (ascending, as before).
        acceptMask.clearAll();
        grantMask.forEachSet([&](std::size_t o) {
            const Candidate *g = grant[o];
            if (!acceptMask.test(g->in) || better(g, accept[g->in])) {
                accept[g->in] = g;
                acceptMask.set(g->in);
            }
        });
        const bool progress = acceptMask.any();
        acceptMask.forEachSet([&](std::size_t in) {
            const Candidate *a = accept[in];
            inUsed[a->in] = true;
            outUsed[a->out] = true;
            out.push_back(*a);
        });
        if (!progress)
            break;
    }
}

AutonetScheduler::AutonetScheduler(unsigned num_ports, unsigned iterations)
    : numPorts(num_ports), iters(iterations), requests(num_ports),
      grants(num_ports), offers(num_ports), inUsed(num_ports),
      outUsed(num_ports)
{
    mmr_assert(iters >= 1, "need at least one matching iteration");
}

// mmr-lint: allow(hot-path-alloc) amortized: the matching and
// any per-call scratch reuse caller/member capacity across
// cycles (verified dynamically by test_zero_alloc).
void
AutonetScheduler::scheduleInto(
    const std::vector<std::vector<Candidate>> &per_input,
    Rng &rng, Matching &out)
{
    out.clear();
    std::fill(inUsed.begin(), inUsed.end(), false);
    std::fill(outUsed.begin(), outUsed.end(), false);

    for (unsigned it = 0; it < iters; ++it) {
        // Request phase: unmatched inputs request the outputs of all
        // their still-available candidates.
        for (auto &r : requests)
            r.clear();
        for (const auto &cands : per_input) {
            for (const Candidate &c : cands) {
                if (c.in < numPorts && !inUsed[c.in] &&
                    !outUsed[c.out])
                    requests[c.out].push_back(&c);
            }
        }

        // Grant phase: each free output grants one random requester.
        std::fill(grants.begin(), grants.end(), nullptr);
        for (PortId o = 0; o < numPorts; ++o) {
            auto &req = requests[o];
            if (outUsed[o] || req.empty())
                continue;
            grants[o] = req[rng.below(req.size())];
        }

        // Accept phase: each input accepts one random grant.
        for (auto &o : offers)
            o.clear();
        for (PortId o = 0; o < numPorts; ++o) {
            if (grants[o] != nullptr)
                offers[grants[o]->in].push_back(grants[o]);
        }
        bool progress = false;
        for (PortId in = 0; in < numPorts; ++in) {
            auto &offer = offers[in];
            if (offer.empty())
                continue;
            const Candidate *pick = offer[rng.below(offer.size())];
            inUsed[pick->in] = true;
            outUsed[pick->out] = true;
            out.push_back(*pick);
            progress = true;
        }
        if (!progress)
            break;
    }
}

IslipScheduler::IslipScheduler(unsigned num_ports, unsigned iterations)
    : numPorts(num_ports), iters(iterations), grantPtr(num_ports, 0),
      acceptPtr(num_ports, 0),
      req(static_cast<std::size_t>(num_ports) * num_ports),
      grant(num_ports),
      reqMask(num_ports, BitVector(num_ports)),
      grantForIn(num_ports, BitVector(num_ports)),
      inUsed(num_ports), outUsed(num_ports)
{
    mmr_assert(iters >= 1, "need at least one matching iteration");
}

// mmr-lint: allow(hot-path-alloc) amortized: the matching and
// any per-call scratch reuse caller/member capacity across
// cycles (verified dynamically by test_zero_alloc).
void
IslipScheduler::scheduleInto(
    const std::vector<std::vector<Candidate>> &per_input,
    Rng &rng, Matching &out)
{
    (void)rng;
    out.clear();
    std::fill(inUsed.begin(), inUsed.end(), false);
    std::fill(outUsed.begin(), outUsed.end(), false);

    for (unsigned it = 0; it < iters; ++it) {
        // Requests: candidate per (input, output); keep the best
        // candidate per pair so the grant can return it.  The request
        // matrix is shadowed by one bit per pair; req[] entries with a
        // clear bit are stale and never read, so there is no O(N^2)
        // pointer fill per iteration — only the N/64-word mask clears.
        for (BitVector &row : reqMask)
            row.clearAll();
        for (const auto &cands : per_input) {
            for (const Candidate &c : cands) {
                if (inUsed[c.in] || outUsed[c.out])
                    continue;
                const Candidate *&slot =
                    req[static_cast<std::size_t>(c.out) * numPorts + c.in];
                if (!reqMask[c.out].test(c.in) || c.tier > slot->tier ||
                    (c.tier == slot->tier && c.prio > slot->prio)) {
                    slot = &c;
                    reqMask[c.out].set(c.in);
                }
            }
        }

        // Grant: round-robin from grantPtr over inputs — the N-step
        // modular pointer scan is one findFirstWrap over the request
        // row (at most two word walks).
        for (BitVector &row : grantForIn)
            row.clearAll();
        for (PortId o = 0; o < numPorts; ++o) {
            if (outUsed[o])
                continue;
            const std::size_t in = reqMask[o].findFirstWrap(grantPtr[o]);
            if (in >= numPorts)
                continue;
            const std::size_t row = static_cast<std::size_t>(o) * numPorts;
            grant[o] = req[row + in];
            grantForIn[in].set(o);
        }

        // Accept: round-robin from acceptPtr over outputs, again one
        // findFirstWrap over the grants aimed at this input.
        for (PortId in = 0; in < numPorts; ++in) {
            if (inUsed[in])
                continue;
            const std::size_t o =
                grantForIn[in].findFirstWrap(acceptPtr[in]);
            if (o >= numPorts)
                continue;
            const Candidate *best = grant[o];
            inUsed[best->in] = true;
            outUsed[best->out] = true;
            out.push_back(*best);
            // iSLIP: pointers advance only on first-iteration accepts,
            // preserving the desynchronization property.
            if (it == 0) {
                grantPtr[best->out] = (best->in + 1) % numPorts;
                acceptPtr[best->in] = (best->out + 1) % numPorts;
            }
        }
    }
}

// mmr-lint: allow(hot-path-alloc) amortized: the matching and
// any per-call scratch reuse caller/member capacity across
// cycles (verified dynamically by test_zero_alloc).
void
PerfectSwitchScheduler::scheduleInto(
    const std::vector<std::vector<Candidate>> &per_input,
    Rng &rng, Matching &out)
{
    (void)rng;
    // Output conflicts do not exist: each input link simply transmits
    // its best candidate (one flit per input link per cycle — link
    // bandwidth still binds, switch bandwidth does not).
    out.clear();
    for (const auto &cands : per_input) {
        const Candidate *best = nullptr;
        for (const Candidate &c : cands) {
            if (best == nullptr || c.tier > best->tier ||
                (c.tier == best->tier && c.prio > best->prio))
                best = &c;
        }
        if (best != nullptr)
            out.push_back(*best);
    }
}

} // namespace mmr
