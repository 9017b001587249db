#include "workload/churn.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mmr
{

ChurnEngine::ChurnEngine(Network &network, const ChurnConfig &config,
                         Cycle horizon, std::uint64_t seed)
    : net(network),
      cfg(config),
      gen(cfg.workload, net.numNodes(), horizon, seed),
      linkRateBps(net.routerAt(0).config().linkRateBps),
      wheel(kWheelSlots, kNil)
{
    mmr_assert(cfg.maxLiveSessions > 0,
               "churn needs room for at least one live session");
    // A class no link can carry is a configuration error, not a setup
    // the network refuses at run time.
    for (const MixEntry &e : gen.mix()) {
        const double vbr_peak = e.rateBps * cfg.workload.peakToMean;
        if (e.vbr && vbr_peak > linkRateBps)
            mmr_fatal("churn mix class vbr:", e.rateBps, " b/s peaks at ",
                      vbr_peak, " b/s, which exceeds the link rate of ",
                      linkRateBps, " b/s");
        if (!e.vbr && e.rateBps > linkRateBps)
            mmr_fatal("churn mix class ", e.rateBps,
                      " b/s exceeds the link rate of ", linkRateBps,
                      " b/s");
    }
    // Pending setups must always resolve, or drain never finishes:
    // arm the probe timeout unless recovery (or the caller) already
    // configured one.
    if (net.probes().setupTimeout() == 0 && cfg.setupTimeoutCycles > 0)
        net.probes().setSetupTimeout(cfg.setupTimeoutCycles);
    // The session ceiling is known: pre-seed every setup-path pool so
    // a steady churn window performs no heap allocation at all (the
    // dynamic proof is test_zero_alloc's churn test).
    net.reserveSessions(cfg.maxLiveSessions);
}

std::uint32_t
ChurnEngine::acquireSlot()
{
    std::uint32_t idx;
    if (freeHead != kNil) {
        idx = freeHead;
        freeHead = slots[idx].next;
    } else if (slots.size() < cfg.maxLiveSessions) {
        idx = static_cast<std::uint32_t>(slots.size());
        // mmr-lint: allow(hot-path-alloc) grows only to a new peak
        // population; steady-state churn recycles the free list.
        slots.emplace_back();
    } else {
        return kNil;
    }
    ++used;
    peak = std::max(peak, used);
    return idx;
}

void
ChurnEngine::freeSlot(std::uint32_t idx)
{
    Session &s = slots[idx];
    s.state = Free;
    s.conn = kInvalidConn;
    s.next = freeHead;
    freeHead = idx;
    --used;
}

void
ChurnEngine::wheelInsert(std::uint32_t idx)
{
    Session &s = slots[idx];
    const auto slot =
        static_cast<std::uint32_t>(s.departAt) & (kWheelSlots - 1);
    s.next = wheel[slot];
    wheel[slot] = idx;
}

void
ChurnEngine::retire(std::uint32_t idx, bool completed_hold)
{
    Session &s = slots[idx];
    net.closeConnection(s.handle()); // false when a fault already tore it
    if (completed_hold)
        ++led.completed;
    s.state = Reaping;
    s.next = reapHead;
    reapHead = idx;
}

void
ChurnEngine::tick(Cycle now)
{
    reap(now);
    pollSetups(now);
    admitArrivals(now);
    departures(now);
    injectActive(now);
}

void
ChurnEngine::reap(Cycle now)
{
    (void)now;
    std::uint32_t idx = reapHead;
    std::uint32_t prev = kNil;
    while (idx != kNil) {
        Session &s = slots[idx];
        const std::uint32_t nxt = s.next;
        if (net.connectionState(s.handle()) == Network::ConnState::Gone) {
            // Fully torn down: fold the connection's delay/jitter into
            // the recorder's retired aggregates and recycle the slot —
            // neither side keeps per-session state afterwards.
            net.endToEnd().releaseConnection(s.conn);
            if (prev == kNil)
                reapHead = nxt;
            else
                slots[prev].next = nxt;
            freeSlot(idx);
        } else {
            prev = idx;
        }
        idx = nxt;
    }
}

void
ChurnEngine::pollSetups(Cycle now)
{
    std::uint32_t idx = pendHead;
    std::uint32_t prev = kNil;
    while (idx != kNil) {
        Session &s = slots[idx];
        const std::uint32_t nxt = s.next;
        Network::SetupOutcome out;
        if (!net.takeTimedResult(s.token, out)) {
            prev = idx;
            idx = nxt;
            continue;
        }
        // Resolved: unlink from the pending chain first; `next` is
        // about to thread a different list.
        if (prev == kNil)
            pendHead = nxt;
        else
            slots[prev].next = nxt;

        if (out.accepted) {
            ++led.admitted;
            setupHist.record(out.setupCycles);
            // A link fault in the cycles between establishment and
            // this poll can have already killed the connection, or even
            // drained it and handed its slot on; the handle is then not
            // live and the first inject scan sees it.
            s.conn = out.id;
            s.token = std::bit_cast<std::uint64_t>(out.handle);
            if (draining) {
                // Admitted after the run ended: close immediately.
                retire(idx, true);
            } else {
                s.state = Active;
                s.departAt = now + s.departAt; // rebase drawn hold
                wheelInsert(idx);
                s.activeNext = activeHead;
                activeHead = idx;
            }
        } else {
            ++led.rejected;
            freeSlot(idx);
        }
        idx = nxt;
    }
}

void
ChurnEngine::admitArrivals(Cycle now)
{
    const unsigned n = gen.arrivals(now);
    for (unsigned i = 0; i < n; ++i) {
        // Draw unconditionally so the generator's sub-RNG streams
        // advance identically whether or not the pool has room.
        const SessionGenerator::Draw d = gen.draw();
        ++led.arrived;
        const std::uint32_t idx = acquireSlot();
        if (idx == kNil) {
            ++led.rejected;
            ++led.rejectedBusy;
            continue;
        }
        Session &s = slots[idx];
        s.src = d.src;
        s.dst = d.dst;
        s.vbr = d.vbr;
        s.departAt = d.holdCycles; // absolute once admitted
        s.rateFlitsPerCycle =
            static_cast<float>(d.rateBps / linkRateBps);
        s.credit = 0.0f;
        s.seq = 0;
        s.conn = kInvalidConn;
        s.activeNext = kNil;
        s.state = Pending;
        s.token =
            d.vbr ? net.openVbrTimed(d.src, d.dst, d.rateBps,
                                     d.rateBps * cfg.workload.peakToMean,
                                     cfg.workload.vbrPriority, now)
                  : net.openCbrTimed(d.src, d.dst, d.rateBps, now);
        s.next = pendHead;
        pendHead = idx;
    }
}

void
ChurnEngine::departures(Cycle now)
{
    const auto slot =
        static_cast<std::uint32_t>(now) & (kWheelSlots - 1);
    std::uint32_t idx = wheel[slot];
    wheel[slot] = kNil;
    std::uint32_t keep = kNil; // sessions riding another revolution
    while (idx != kNil) {
        Session &s = slots[idx];
        const std::uint32_t nxt = s.next;
        if (s.departAt <= now) {
            // Zombies already counted abandoned; Active holds count
            // completed.  Either way the connection closes here and
            // the reaper frees the slot once teardown drains.
            retire(idx, s.state == Active);
        } else {
            s.next = keep;
            keep = idx;
        }
        idx = nxt;
    }
    wheel[slot] = keep;
}

void
ChurnEngine::injectActive(Cycle now)
{
    std::uint32_t idx = activeHead;
    std::uint32_t prev = kNil;
    while (idx != kNil) {
        Session &s = slots[idx];
        const std::uint32_t nxt = s.activeNext;
        if (s.state != Active) {
            // Departed this cycle: drop it from the scan chain.
            if (prev == kNil)
                activeHead = nxt;
            else
                slots[prev].activeNext = nxt;
            idx = nxt;
            continue;
        }
        if (!net.live(s.handle())) {
            // A link fault tore the connection down mid-hold.  The
            // session stays in the wheel as a zombie so its slot
            // reuse waits for its (already chained) departure pop.
            ++led.abandoned;
            s.state = Zombie;
            if (prev == kNil)
                activeHead = nxt;
            else
                slots[prev].activeNext = nxt;
            idx = nxt;
            continue;
        }
        s.credit += s.rateFlitsPerCycle;
        while (s.credit >= 1.0f) {
            s.credit -= 1.0f;
            Flit f;
            f.seq = s.seq++;
            f.createTime = now;
            if (net.inject(s.handle(), f, now)) {
                ++statInjected;
                continue;
            }
            // Back-pressure: CBR sources keep their cadence — the
            // rest of this cycle's quota is dropped, not queued.
            const auto rest = static_cast<std::uint32_t>(s.credit);
            statDropped += 1 + rest;
            s.credit -= static_cast<float>(rest);
            break;
        }
        prev = idx;
        idx = nxt;
    }
}

void
ChurnEngine::beginDrain(Cycle now)
{
    (void)now;
    draining = true;
    gen.shutOff();

    // Force every admitted session out: the wheel and active chains
    // are dissolved wholesale (their `next` links get rewritten into
    // the reaper chain below), pending setups keep resolving under
    // tick() until the probe timeout clears the stragglers.
    std::fill(wheel.begin(), wheel.end(), kNil);
    activeHead = kNil;
    std::uint32_t reaping = kNil;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(slots.size()); ++i) {
        Session &s = slots[i];
        switch (s.state) {
          case Active:
            net.closeConnection(s.handle());
            ++led.completed; // hold cut short by end of run
            break;
          case Zombie:
            net.closeConnection(s.handle()); // usually already gone
            break;
          case Reaping:
            break;
          default:
            continue;
        }
        s.state = Reaping;
        s.next = reaping;
        reaping = i;
    }
    reapHead = reaping;
}

void
ChurnEngine::auditLedger(Cycle now) const
{
    std::uint64_t nFree = 0;
    std::uint64_t nPend = 0;
    std::uint64_t nAct = 0;
    std::uint64_t nZom = 0;
    std::uint64_t nReap = 0;
    for (const Session &s : slots) {
        switch (s.state) {
          case Free:
            ++nFree;
            break;
          case Pending:
            ++nPend;
            break;
          case Active:
            ++nAct;
            break;
          case Zombie:
            ++nZom;
            break;
          case Reaping:
            ++nReap;
            break;
          default:
            mmr_invariant_violated("workload.session-ledger",
                                   "unknown session state ",
                                   unsigned(s.state), " @", now);
        }
    }
    const std::uint64_t occupied = nPend + nAct + nZom + nReap;
    if (occupied != used || occupied + nFree != slots.size())
        mmr_invariant_violated(
            "workload.session-ledger", "pool accounting: used=", used,
            " but pending=", nPend, " active=", nAct, " zombie=", nZom,
            " reaping=", nReap, " free=", nFree,
            " slots=", slots.size(), " @", now);
    if (led.arrived != nPend + led.admitted + led.rejected)
        mmr_invariant_violated(
            "workload.session-ledger", "arrivals: arrived=",
            led.arrived, " != pending=", nPend,
            " + admitted=", led.admitted, " + rejected=", led.rejected,
            " @", now);
    // Zombie and reaping sessions are already inside completed /
    // abandoned (counted at the transition), so only Active sessions
    // are still "outstanding" against the admitted total.
    if (led.admitted != nAct + led.completed + led.abandoned)
        mmr_invariant_violated(
            "workload.session-ledger", "admissions: admitted=",
            led.admitted, " != active=", nAct,
            " + completed=", led.completed,
            " + abandoned=", led.abandoned, " @", now);
    if (led.rejectedBusy > led.rejected)
        mmr_invariant_violated("workload.session-ledger",
                               "rejectedBusy=", led.rejectedBusy,
                               " exceeds rejected=", led.rejected, " @",
                               now);
    if (peak > cfg.maxLiveSessions)
        mmr_invariant_violated("workload.session-ledger",
                               "peak live ", peak,
                               " exceeds configured cap ",
                               cfg.maxLiveSessions, " @", now);
}

void
ChurnEngine::registerInvariants(InvariantChecker &chk, unsigned period)
{
    chk.add(
        "workload.session-ledger",
        [this](Cycle now) { auditLedger(now); }, period);
}

} // namespace mmr
