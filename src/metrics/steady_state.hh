/**
 * @file
 * Steady-state detection (§5 methodology: "The simulations were run
 * until steady state was reached and statistics gathered over
 * approximately 100,000 router cycles").
 *
 * The detector watches a stream of per-window means (e.g. mean delay
 * over consecutive windows of N cycles) and declares steady state
 * once K consecutive windows agree within a relative tolerance.  The
 * harness uses it to size the warm-up automatically instead of a
 * fixed cycle count.
 */

#ifndef MMR_METRICS_STEADY_STATE_HH
#define MMR_METRICS_STEADY_STATE_HH

#include <cstddef>
#include <vector>

#include "base/types.hh"

namespace mmr
{

class SteadyStateDetector
{
  public:
    /**
     * @param window_cycles how many cycles one observation window
     *        spans (the caller feeds one sample per window)
     * @param tolerance relative agreement required between windows
     * @param stable_windows consecutive agreeing windows needed
     */
    SteadyStateDetector(Cycle window_cycles, double tolerance = 0.10,
                        unsigned stable_windows = 3);

    /** Feed one window's metric (e.g. mean delay). */
    void addWindow(double value);

    bool steady() const { return isSteady; }

    /** Window index at which steadiness was first declared. */
    std::size_t steadyAtWindow() const { return steadyWindow; }

    /** Cycle count corresponding to steadyAtWindow(). */
    Cycle steadyAtCycle() const
    {
        return static_cast<Cycle>(steadyWindow + 1) * windowCycles;
    }

    std::size_t windowsSeen() const { return history.size(); }

  private:
    Cycle windowCycles;
    double tol;
    unsigned needed;
    unsigned agreeing = 0;
    bool isSteady = false;
    std::size_t steadyWindow = 0;
    std::vector<double> history;
};

} // namespace mmr

#endif // MMR_METRICS_STEADY_STATE_HH
