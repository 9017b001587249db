// mmr-lint fixture: the clocked-invariants rule must fire exactly once.
namespace mmr
{

using Cycle = unsigned long long;

struct Clocked
{
    virtual void evaluate(Cycle) = 0;
    virtual void advance(Cycle) = 0;
    virtual ~Clocked() = default;
};

// BAD: a per-cycle component with simulation state but no
// registerInvariants(InvariantChecker&) hook.
class DriftCounter : public Clocked
{
  public:
    void evaluate(Cycle) override { ++ticks; }
    void advance(Cycle) override {}

  private:
    Cycle ticks = 0;
};

} // namespace mmr
