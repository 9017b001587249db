/**
 * @file
 * Deterministic fault schedules for the MMR network.
 *
 * The paper's machinery — PCS setup with EPB backtracking, up*-down*
 * routing (born in Autonet, a network that reconfigures around
 * faults), credit-based flow control — exists to survive an imperfect
 * LAN.  A FaultPlan makes that imperfection reproducible: it is a
 * fully precomputed, seed-derived schedule of link down/up events
 * plus stochastic-rate models for probe/ack message loss and on-wire
 * flit corruption.  Two runs with the same topology, seed and model
 * produce bit-identical schedules, so every randomized fault run is
 * replayable from its seed alone — the property the randomized fault
 * suite and the resultDigest reproducibility audit rely on.
 *
 * Plans come from two sources: FaultPlan::random() draws failure and
 * repair times from per-link exponential processes (optionally
 * refusing failures that would partition the surviving graph), and
 * FaultPlan::fromEvents() parses an explicit "down@500:2-3;up@900:2-3"
 * event list for directed tests and CLI reproduction of a specific
 * scenario.
 */

#ifndef MMR_FAULT_FAULT_PLAN_HH
#define MMR_FAULT_FAULT_PLAN_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "base/types.hh"
#include "network/topology.hh"

namespace mmr
{

/** Stochastic fault model, the knobs behind a random FaultPlan. */
struct FaultModel
{
    /**
     * Expected link failures per link per 10,000 cycles (the bench's
     * "link-failure rate": 0.01 = 1%).  0 disables link failures.
     */
    double linkFailPer10k = 0.0;

    /** Mean cycles until a failed link is repaired (exponential);
     * 0 = links stay down forever. */
    Cycle meanRepairCycles = 4000;

    /** Probability of losing each setup-protocol message (probe,
     * backtrack or ack hop) on the wire. */
    double probeDropRate = 0.0;

    /** Probability of corrupting each flit entering an inter-router
     * link (discarded by the downstream CRC check). */
    double corruptRate = 0.0;

    /** Schedule events in [0, horizon). */
    Cycle horizon = 0;

    /** Allow failures that disconnect the surviving graph.  Off by
     * default: QoS benches need every endpoint reachable; stress
     * tests switch it on to exercise clean setup failure. */
    bool allowPartition = false;
};

/**
 * Parse "fail=0.01,repair=4000,drop=0.02,corrupt=1e-4,partition=1"
 * into a FaultModel (the --faults CLI syntax; keys may appear in any
 * order, missing keys keep their defaults).  Fatal on unknown keys and
 * on values out of range: fail is a finite non-negative rate, drop and
 * corrupt are probabilities, repair and horizon whole cycle counts and
 * partition 0 or 1.
 */
FaultModel parseFaultModel(const std::string &spec);

/** One scheduled topology event. */
struct FaultEvent
{
    Cycle at = 0;
    enum class Kind
    {
        LinkDown,
        LinkUp
    } kind = Kind::LinkDown;
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
};

class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Draw a schedule from @p model over @p topo: each link fails as
     * an independent exponential process at rate linkFailPer10k and
     * repairs after an exponential delay.  With allowPartition off,
     * failures that would disconnect the then-surviving graph (a copy
     * of @p topo with the plan's earlier events applied) are dropped
     * (with their repairs) and counted in partitionSkips().
     * Deterministic in (topo, model, seed).
     */
    static FaultPlan random(const Topology &topo, const FaultModel &model,
                            std::uint64_t seed);

    /**
     * Parse an explicit ';'-separated event list:
     * "down@500:2-3;up@900:2-3" fails then repairs link 2-3.  The
     * model's stochastic rates stay zero.  Fatal on malformed specs,
     * on cycles and node ids that are not whole numbers fitting their
     * type, and on node pairs the topology does not link.
     */
    static FaultPlan fromEvents(const std::string &spec,
                                const Topology &topo);

    /** Events in nondecreasing cycle order. */
    const std::vector<FaultEvent> &events() const { return schedule; }

    const FaultModel &model() const { return mdl; }

    /** Override the stochastic model, e.g. to add probe-drop or
     * corruption rates to an explicit fromEvents() plan. */
    void setModel(const FaultModel &m) { mdl = m; }

    /** Failure events suppressed to keep the graph connected. */
    unsigned partitionSkips() const { return skips; }

    bool empty() const
    {
        return schedule.empty() && mdl.probeDropRate == 0.0 &&
               mdl.corruptRate == 0.0;
    }

    /** The fromEvents() syntax for this plan's event list. */
    std::string toSpec() const;

    /** Machine-readable dump: {"model": {...}, "events": [...]} . */
    void printJson(std::ostream &os) const;

  private:
    FaultModel mdl;
    std::vector<FaultEvent> schedule;
    unsigned skips = 0;
};

} // namespace mmr

#endif // MMR_FAULT_FAULT_PLAN_HH
