// mmr-lint fixture: the cycle-type rule must fire exactly once.
namespace mmr
{

struct Probe
{
  public:
    // BAD: a flit-cycle deadline in a raw builtin integer where the
    // Cycle type exists (and per-round budgets like allocCycles are
    // exempt by convention, so this is unambiguous).  Declared right
    // after an access specifier, which the rule must see through.
    long timeoutCycles = 0;
};

} // namespace mmr
