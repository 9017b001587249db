/**
 * @file
 * Unit tests for the cycle kernel.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/kernel.hh"

namespace mmr
{
namespace
{

/** Probe component recording the phase call pattern. */
class Probe : public Clocked
{
  public:
    explicit Probe(std::vector<std::string> *log_, std::string name_)
        : log(log_), name(std::move(name_))
    {
    }
    void evaluate(Cycle now) override
    {
        log->push_back(name + ":eval@" + std::to_string(now));
    }
    void advance(Cycle now) override
    {
        log->push_back(name + ":adv@" + std::to_string(now));
    }

  private:
    std::vector<std::string> *log;
    std::string name;
};

TEST(Kernel, TwoPhaseOrdering)
{
    Kernel k;
    std::vector<std::string> log;
    Probe a(&log, "a"), b(&log, "b");
    k.add(&a, "a");
    k.add(&b, "b");
    k.run(2);
    // All evaluates precede all advances within a cycle.
    ASSERT_EQ(log.size(), 8u);
    EXPECT_EQ(log[0], "a:eval@0");
    EXPECT_EQ(log[1], "b:eval@0");
    EXPECT_EQ(log[2], "a:adv@0");
    EXPECT_EQ(log[3], "b:adv@0");
    EXPECT_EQ(log[4], "a:eval@1");
    EXPECT_EQ(k.now(), 2u);
}

TEST(Kernel, StepAdvancesClock)
{
    Kernel k;
    EXPECT_EQ(k.now(), 0u);
    k.step();
    EXPECT_EQ(k.now(), 1u);
    k.run(9);
    EXPECT_EQ(k.now(), 10u);
}

TEST(KernelDeath, NullComponentPanics)
{
    Kernel k;
    EXPECT_DEATH(k.add(nullptr), "null component");
}

} // namespace
} // namespace mmr
