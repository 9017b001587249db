#include "harness/single_router.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>

#include "base/logging.hh"
#include "base/simclock.hh"
#include "metrics/steady_state.hh"
#include "obs/obs_config.hh"
#include "sim/kernel.hh"
#include "traffic/rates.hh"

namespace mmr
{

SingleRouterExperiment::SingleRouterExperiment(const ExperimentConfig &c)
    : cfg(c), rng(c.seed), inputDemand(c.router.numPorts, 0.0),
      outputDemand(c.router.numPorts, 0.0)
{
    if (cfg.rateLadder.empty())
        cfg.rateLadder = paperRateLadder();
    if (cfg.offeredLoad < 0.0 || cfg.offeredLoad > 1.0)
        mmr_fatal("offered load must be in [0,1], got ", cfg.offeredLoad);
    const double mix_total = cfg.mix.total();
    if (mix_total <= 0.0)
        mmr_fatal("workload mix shares must sum to a positive value");

    RouterConfig rc = cfg.router;
    rc.seed = cfg.seed ^ 0x5eedf00dULL;
    dut = std::make_unique<MmrRouter>(rc, &recorder);

    recorder.setQosBudget(TrafficClass::CBR, cfg.cbrDelayBudget);
    recorder.setQosBudget(TrafficClass::VBR, cfg.vbrDelayBudget);
    recorder.setQosBudget(TrafficClass::BestEffort, cfg.beDelayBudget);

    // Frame-deadline accounting for VBR flits: the injection path
    // stamps each flit with its frame's deadline (Flit::arg); a flit
    // leaving the switch later than that is a miss (§4.3).  Flits the
    // *source* already emitted past the deadline (an oversized frame
    // that cannot fit its slot even at peak rate) are excluded — they
    // measure the traffic model, not the scheduler.
    dut->setSink([this](PortId, VcId, const Flit &f, Cycle now) {
        // Windowed delay accumulation (steady-state detection).
        windowDelaySum += static_cast<double>(now - f.readyTime);
        ++windowDelayCount;
        if (f.klass != TrafficClass::VBR || f.arg <= 0.0)
            return;
        if (!recorder.measuring(now))
            return;
        if (static_cast<double>(f.createTime) > f.arg)
            return; // source-inherent lateness
        auto &[misses, total] = deadlineByConn[f.conn];
        ++total;
        if (static_cast<double>(now) > f.arg)
            ++misses;
    });
}

SingleRouterExperiment::~SingleRouterExperiment() = default;

bool
SingleRouterExperiment::addCbrConnection(double rate_bps)
{
    const unsigned ports = cfg.router.numPorts;
    const double link = cfg.router.linkRateBps;
    // Try several random port pairs before giving up: a single output
    // may be full while others still have room.
    for (unsigned attempt = 0; attempt < 4 * ports; ++attempt) {
        const auto in = static_cast<PortId>(rng.below(ports));
        const auto out = static_cast<PortId>(rng.below(ports));
        if (inputDemand[in] + rate_bps > link ||
            outputDemand[out] + rate_bps > link)
            continue;
        const ConnId id = dut->openCbr(in, out, rate_bps);
        if (id == kInvalidConn)
            continue;
        inputDemand[in] += rate_bps;
        outputDemand[out] += rate_bps;
        admittedBps += rate_bps;
        Stream s;
        s.conn = id;
        s.klass = TrafficClass::CBR;
        s.in = in;
        s.inVc = dut->connection(id)->inVc;
        s.source = std::make_unique<CbrSource>(rate_bps, link, rng);
        streams.push_back(std::move(s));
        return true;
    }
    return false;
}

bool
SingleRouterExperiment::addVbrConnection(double mean_rate_bps)
{
    const unsigned ports = cfg.router.numPorts;
    const double link = cfg.router.linkRateBps;
    const double peak_bps = mean_rate_bps * cfg.mix.vbrProfile.peakToMean;
    if (peak_bps > link)
        return false;
    for (unsigned attempt = 0; attempt < 4 * ports; ++attempt) {
        const auto in = static_cast<PortId>(rng.below(ports));
        const auto out = static_cast<PortId>(rng.below(ports));
        if (inputDemand[in] + mean_rate_bps > link ||
            outputDemand[out] + mean_rate_bps > link)
            continue;
        const int prio = static_cast<int>(
            rng.below(std::max(1, cfg.mix.vbrPriorityLevels)));
        const ConnId id = dut->openVbr(in, out, mean_rate_bps, peak_bps,
                                       prio);
        if (id == kInvalidConn)
            continue;
        inputDemand[in] += mean_rate_bps;
        outputDemand[out] += mean_rate_bps;
        admittedBps += mean_rate_bps;
        VbrProfile prof = cfg.mix.vbrProfile;
        prof.meanRateBps = mean_rate_bps;
        Stream s;
        s.conn = id;
        s.klass = TrafficClass::VBR;
        s.in = in;
        s.inVc = dut->connection(id)->inVc;
        auto src = std::make_unique<VbrSource>(prof, link,
                                               cfg.router.flitBits, rng);
        s.vbr = src.get();
        s.source = std::move(src);
        streams.push_back(std::move(s));
        return true;
    }
    return false;
}

bool
SingleRouterExperiment::addBestEffortFlow(double rate_bps)
{
    const unsigned ports = cfg.router.numPorts;
    const double link = cfg.router.linkRateBps;
    for (unsigned attempt = 0; attempt < 4 * ports; ++attempt) {
        const auto in = static_cast<PortId>(rng.below(ports));
        const auto out = static_cast<PortId>(rng.below(ports));
        if (inputDemand[in] + rate_bps > link ||
            outputDemand[out] + rate_bps > link)
            continue;
        const ConnId id = dut->openBestEffort(in, out);
        if (id == kInvalidConn)
            continue;
        inputDemand[in] += rate_bps;
        outputDemand[out] += rate_bps;
        admittedBps += rate_bps;
        Stream s;
        s.conn = id;
        s.klass = TrafficClass::BestEffort;
        s.in = in;
        s.inVc = dut->connection(id)->inVc;
        s.source = std::make_unique<PoissonSource>(rate_bps, link, rng);
        streams.push_back(std::move(s));
        return true;
    }
    return false;
}

void
SingleRouterExperiment::buildWorkload()
{
    mmr_assert(!built, "workload already built");
    built = true;

    const double capacity =
        cfg.router.linkRateBps * cfg.router.numPorts;
    const double mix_total = cfg.mix.total();
    const double cbr_target =
        capacity * cfg.offeredLoad * cfg.mix.cbrShare / mix_total;
    const double vbr_target =
        capacity * cfg.offeredLoad * cfg.mix.vbrShare / mix_total;
    const double be_target =
        capacity * cfg.offeredLoad * cfg.mix.beShare / mix_total;
    // Allow a small overshoot so the last connection can land.
    const double tol = capacity * 0.002;

    // CBR connections drawn from the rate ladder (§5).
    double cbr_admitted = 0.0;
    unsigned failures = 0;
    while (cbr_admitted < cbr_target && failures < 64) {
        std::vector<double> fitting;
        for (double r : cfg.rateLadder)
            if (cbr_admitted + r <= cbr_target + tol)
                fitting.push_back(r);
        if (fitting.empty())
            break;
        const double rate = rng.pick(fitting);
        if (addCbrConnection(rate)) {
            cbr_admitted += rate;
            failures = 0;
        } else {
            ++failures;
        }
    }

    // VBR connections: mean rates from the video-like upper ladder.
    double vbr_admitted = 0.0;
    failures = 0;
    while (vbr_admitted < vbr_target && failures < 64) {
        std::vector<double> fitting;
        for (double r : cfg.rateLadder)
            if (r >= 1.0 * kMbps &&
                vbr_admitted + r <= vbr_target + tol)
                fitting.push_back(r);
        if (fitting.empty())
            break;
        const double rate = rng.pick(fitting);
        if (addVbrConnection(rate)) {
            vbr_admitted += rate;
            failures = 0;
        } else {
            ++failures;
        }
    }

    // Best-effort background: Poisson flows of a few Mb/s each.
    double be_admitted = 0.0;
    failures = 0;
    const double be_flow_rate = 5.0 * kMbps;
    while (be_target > 0.0 &&
           be_admitted + be_flow_rate <= be_target + tol &&
           failures < 64) {
        if (addBestEffortFlow(be_flow_rate)) {
            be_admitted += be_flow_rate;
            failures = 0;
        } else {
            ++failures;
        }
    }
}

void
SingleRouterExperiment::pollStream(std::size_t idx, Cycle now)
{
    Stream &s = streams[idx];
    const unsigned n = s.source->arrivals(now);
    for (unsigned k = 0; k < n; ++k) {
        if (s.vbr != nullptr && cfg.mix.abortLateFrames &&
            static_cast<double>(now) > s.vbr->currentFrameDeadline()) {
            // §4.3: the interface aborts the rest of a frame that
            // has already missed its deadline rather than wasting
            // link bandwidth on it.
            ++abortedFlitCount;
            continue;
        }
        Flit f;
        f.conn = s.conn;
        f.klass = s.klass;
        f.seq = s.seq++;
        f.createTime = now;
        f.readyTime = now;
        if (s.vbr != nullptr)
            f.arg = s.vbr->currentFrameDeadline();
        // Raw injection at the cached endpoint: same deposit path as
        // inject(conn, ...) minus the per-flit connection-map lookup.
        dut->injectRaw(s.in, s.inVc, f);
    }
}

namespace
{

/** JSON/stats-registry keys for the traffic classes (to_string's
 * human forms — "best-effort" — make poor identifiers). */
constexpr const char *kClassKeys[kNumTrafficClasses] = {
    "cbr", "vbr", "best_effort", "control"};

/** First integer cycle at which a source with fractional due time
 * `due` can fire, never earlier than `floor_cycle`.  A source that
 * reports 0.0 (the opt-out default) lands on `floor_cycle` and is
 * polled every cycle, exactly like the naive loop. */
inline Cycle
dueCycleFor(double due, Cycle floor_cycle)
{
    if (due <= static_cast<double>(floor_cycle))
        return floor_cycle;
    return static_cast<Cycle>(std::ceil(due));
}

} // namespace

void
SingleRouterExperiment::scheduleStream(std::size_t idx, Cycle due,
                                       Cycle origin)
{
    // Buckets are only unambiguous while every wheel entry's due cycle
    // lies within one revolution of the oldest un-drained cycle, so
    // anything at or beyond the horizon parks in the overflow heap and
    // spills in as the wheel turns.
    if (due - origin < kWheelSize) {
        dueWheel[due & (kWheelSize - 1)].push_back(
            static_cast<std::uint32_t>(idx));
    } else {
        farDue.emplace_back(due, static_cast<std::uint32_t>(idx));
        std::push_heap(farDue.begin(), farDue.end(),
                       std::greater<>{});
    }
}

void
SingleRouterExperiment::injectArrivals(Cycle now)
{
    if (!dueWheelInit) {
        // Lazy init: buildWorkload has populated the stream set.
        dueWheelInit = true;
        dueWheel.assign(kWheelSize, {});
        for (std::size_t i = 0; i < streams.size(); ++i)
            scheduleStream(
                i, dueCycleFor(streams[i].source->nextDueCycle(), now),
                now);
        lastDrained = now;
        drainBucket(now, now);
        return;
    }
    // The kernel advances one cycle at a time, so this loop runs one
    // iteration; draining any skipped cycles in order keeps the
    // (cycle, index) poll order identical to the old min-heap either
    // way.
    for (Cycle c = lastDrained + 1; c <= now; ++c)
        drainBucket(c, now);
    lastDrained = now;
}

void
SingleRouterExperiment::drainBucket(Cycle c, Cycle now)
{
    // Entries whose due cycle has rotated into the window move from
    // the overflow heap onto the wheel first.
    while (!farDue.empty() && farDue.front().first - c < kWheelSize) {
        std::pop_heap(farDue.begin(), farDue.end(), std::greater<>{});
        const auto [due, idx] = farDue.back();
        farDue.pop_back();
        dueWheel[due & (kWheelSize - 1)].push_back(idx);
    }
    auto &bucket = dueWheel[c & (kWheelSize - 1)];
    if (bucket.empty())
        return;
    // Same-cycle polls — and therefore draws from the shared RNG —
    // must happen in stream-index order, exactly like the naive
    // poll-every-stream loop.  Each source guarantees its next event
    // lies strictly after a cycle it just processed, so re-scheduling
    // below never targets this bucket again (next due >= now + 1, and
    // due == c + kWheelSize parks in the overflow heap).
    std::sort(bucket.begin(), bucket.end());
    for (std::size_t i = 0; i < bucket.size(); ++i) {
        const std::size_t idx = bucket[i];
        pollStream(idx, now);
        scheduleStream(
            idx,
            dueCycleFor(streams[idx].source->nextDueCycle(), now + 1),
            c);
    }
    bucket.clear();
}

ExperimentResult
SingleRouterExperiment::run()
{
    Kernel kernel;
    kernel.add(dut.get(), "router");
    // The auditor ticks after the router so every cycle's committed
    // state satisfies the conservation laws before the next begins.
    dut->registerInvariants(auditor, 64);
    kernel.add(&auditor, "invariants");

    // Observability: register every stat before the sampler attaches
    // (its column set is frozen at construction), and attach before
    // the workload builds so admission / VC-allocation setup events
    // land in the trace (at cycle 0).
    ObsSession obs(cfg.obs);
    if (cfg.obs.enabled()) {
        dut->registerStats(obs.registry(), "router0.",
                           cfg.obs.perVcStats
                               ? MmrRouter::StatsDetail::PerVc
                               : MmrRouter::StatsDetail::PerPort);
        obs.registry().addGauge("harness.measured_flits", [this] {
            return static_cast<double>(recorder.measuredFlits());
        });
        obs.registry().addGauge("harness.mean_delay_cycles", [this] {
            return recorder.meanDelayCycles();
        });

        // Latency-decomposition and QoS gauges: probes read the live
        // histograms, so the sampler's series and the final registry
        // dump both carry the percentiles.
        for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
            const auto stage = static_cast<LatencyStage>(s);
            const std::string base =
                std::string("latency.") + to_string(stage) + ".";
            for (const double p : {50.0, 90.0, 99.0, 99.9}) {
                std::string key = base + "p" +
                                  (p == 99.9 ? "999"
                                             : std::to_string(
                                                   static_cast<int>(p)));
                obs.registry().addGauge(key, [this, stage, p] {
                    return static_cast<double>(
                        recorder.stageHistogram(stage).percentile(p));
                });
            }
        }
        for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
            const auto klass = static_cast<TrafficClass>(k);
            const std::string base =
                std::string("latency.class.") + kClassKeys[k] + ".";
            for (const double p : {50.0, 99.0, 99.9}) {
                std::string key = base + "p" +
                                  (p == 99.9 ? "999"
                                             : std::to_string(
                                                   static_cast<int>(p)));
                obs.registry().addGauge(key, [this, klass, p] {
                    return static_cast<double>(
                        recorder.classHistogram(klass).percentile(p));
                });
            }
            obs.registry().addGauge(
                std::string("qos.") + kClassKeys[k] + ".violations",
                [this, klass] {
                    return static_cast<double>(
                        recorder.qos(klass).violations);
                });
            obs.registry().addGauge(
                std::string("qos.") + kClassKeys[k] +
                    ".violation_rate",
                [this, klass] {
                    return recorder.qos(klass).violationRate();
                });
        }

        // Full distributions land under "histograms" in --stats-json.
        obs.setHistogramDump([this](std::ostream &os) {
            os << "{\"stage\":{";
            for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
                if (s)
                    os << ",";
                os << "\""
                   << to_string(static_cast<LatencyStage>(s))
                   << "\":";
                recorder
                    .stageHistogram(static_cast<LatencyStage>(s))
                    .writeJson(os);
            }
            os << "},\"class\":{";
            for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
                if (k)
                    os << ",";
                os << "\"" << kClassKeys[k] << "\":";
                recorder
                    .classHistogram(static_cast<TrafficClass>(k))
                    .writeJson(os);
            }
            os << "}}";
        });

        obs.attach(kernel);
    }

    // Setup happens "at" the kernel's current cycle (0): publish it so
    // the admission/VC-allocation trace events and any setup-time log
    // lines are stamped deterministically.
    simclock::set(kernel.now());
    buildWorkload();

    const auto wall_start = std::chrono::steady_clock::now();

    Cycle warmup = cfg.warmupCycles;
    if (cfg.autoWarmup) {
        // §5: run until steady state, watching windowed mean delay.
        SteadyStateDetector det(cfg.warmupWindow);
        while (!det.steady() && kernel.now() < cfg.maxWarmupCycles) {
            windowDelaySum = 0.0;
            windowDelayCount = 0;
            const Cycle end = kernel.now() + cfg.warmupWindow;
            while (kernel.now() < end) {
                injectArrivals(kernel.now());
                kernel.step();
            }
            det.addWindow(windowDelayCount
                              ? windowDelaySum /
                                    static_cast<double>(windowDelayCount)
                              : 0.0);
        }
        warmup = kernel.now();
    }

    recorder.startMeasurement(warmup);
    const Cycle total = warmup + cfg.measureCycles;
    while (kernel.now() < total) {
        if (cfg.forcePanicAt != 0 && kernel.now() >= cfg.forcePanicAt)
            mmr_invariant_violated(
                "forced-panic", "deliberate invariant violation at "
                                "cycle ",
                kernel.now(), " (ExperimentConfig::forcePanicAt)");
        injectArrivals(kernel.now());
        kernel.step();
    }

    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    obs.finish(kernel.now());

    ExperimentResult r;
    r.profile = collectProfile(kernel, wall_seconds,
                               dut->flitsInjected() +
                                   dut->flitsForwarded());
    r.warmupUsed = warmup;
    r.offeredLoad = cfg.offeredLoad;
    r.achievedLoad =
        admittedBps / (cfg.router.linkRateBps * cfg.router.numPorts);
    r.connections = static_cast<unsigned>(streams.size());
    r.meanDelayCycles = recorder.meanDelayCycles();
    r.flitCycleNanos = cfg.router.flitCycleNanos();
    r.meanDelayUs = r.meanDelayCycles * r.flitCycleNanos / 1000.0;
    r.meanJitterCycles = recorder.meanJitterCycles();
    r.p99DelayCycles = recorder.delayPercentile(99.0);
    r.utilization = recorder.switchUtilization();
    r.flitsDelivered = recorder.measuredFlits();
    r.injectionRejects = dut->injectionRejects();
    r.abortedFlits = abortedFlitCount;

    for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
        r.stageHist[s] =
            recorder.stageHistogram(static_cast<LatencyStage>(s));
        r.stageLatency[s] = r.stageHist[s].summarize();
    }
    const auto harvestClass = [this](ClassResult &cls,
                                     TrafficClass klass) {
        cls.qos = recorder.qos(klass);
        cls.delayHist = recorder.classHistogram(klass);
        cls.latency = cls.delayHist.summarize();
    };
    harvestClass(r.cbr, TrafficClass::CBR);
    harvestClass(r.vbr, TrafficClass::VBR);
    harvestClass(r.bestEffort, TrafficClass::BestEffort);

    for (const Stream &s : streams) {
        const ConnectionRecorder *rec = recorder.connection(s.conn);
        if (rec == nullptr)
            continue;
        ClassResult *cls = nullptr;
        switch (s.klass) {
          case TrafficClass::CBR:
            cls = &r.cbr;
            break;
          case TrafficClass::VBR:
            cls = &r.vbr;
            break;
          case TrafficClass::BestEffort:
            cls = &r.bestEffort;
            break;
          case TrafficClass::Control:
            break;
        }
        if (cls != nullptr) {
            cls->delayCycles.merge(rec->delay());
            cls->jitterCycles.merge(rec->jitter());
            cls->flits += rec->delay().count();
        }
        if (s.klass == TrafficClass::VBR) {
            auto it = deadlineByConn.find(s.conn);
            if (it != deadlineByConn.end()) {
                r.vbr.deadlineMisses += it->second.first;
                r.vbr.deadlineTotal += it->second.second;
            }
        }
    }
    return r;
}

ExperimentResult
runSingleRouter(const ExperimentConfig &cfg)
{
    SingleRouterExperiment exp(cfg);
    return exp.run();
}

namespace
{

/** FNV-1a, folded field by field so every statistic participates. */
class Fnv1a
{
  public:
    void addU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }

    void
    addDouble(double v)
    {
        // Canonicalize: -0.0 == 0.0 but their bit patterns differ.
        if (v == 0.0)
            v = 0.0;
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        addU64(bits);
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

void
digestHistogram(Fnv1a &h, const LatencyHistogram &hist)
{
    h.addU64(hist.count());
    h.addU64(hist.minValue());
    h.addU64(hist.maxValue());
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
        h.addU64(hist.bucketCount(i));
}

void
digestSummary(Fnv1a &h, const LatencySummary &s)
{
    h.addU64(s.count);
    h.addU64(s.p50);
    h.addU64(s.p90);
    h.addU64(s.p99);
    h.addU64(s.p999);
    h.addU64(s.maxCycles);
}

void
digestClass(Fnv1a &h, const ClassResult &c)
{
    h.addU64(c.flits);
    h.addU64(c.deadlineMisses);
    h.addU64(c.deadlineTotal);
    h.addU64(c.delayCycles.count());
    h.addDouble(c.delayCycles.mean());
    h.addDouble(c.delayCycles.max());
    h.addU64(c.jitterCycles.count());
    h.addDouble(c.jitterCycles.mean());
    h.addU64(c.qos.budgetCycles);
    h.addU64(c.qos.flits);
    h.addU64(c.qos.violations);
    h.addU64(c.qos.worstExcessCycles);
    digestSummary(h, c.latency);
    digestHistogram(h, c.delayHist);
}

} // namespace

std::uint64_t
resultDigest(const ExperimentResult &r)
{
    Fnv1a h;
    h.addDouble(r.offeredLoad);
    h.addDouble(r.achievedLoad);
    h.addU64(r.connections);
    h.addDouble(r.meanDelayCycles);
    h.addDouble(r.meanDelayUs);
    h.addDouble(r.meanJitterCycles);
    h.addDouble(r.p99DelayCycles);
    h.addDouble(r.utilization);
    h.addU64(r.flitsDelivered);
    h.addU64(r.injectionRejects);
    h.addU64(r.abortedFlits);
    h.addU64(r.warmupUsed);
    digestClass(h, r.cbr);
    digestClass(h, r.vbr);
    digestClass(h, r.bestEffort);
    for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
        digestSummary(h, r.stageLatency[s]);
        digestHistogram(h, r.stageHist[s]);
    }
    h.addDouble(r.flitCycleNanos);
    return h.value();
}

} // namespace mmr
