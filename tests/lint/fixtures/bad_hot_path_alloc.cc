// mmr-lint fixture: the hot-path-alloc rule must fire exactly once,
// on the push_back reached transitively from the MMR_HOT_PATH root.
// The Ring pushes share a name with the std container API, but their
// receivers are declared as Ring, so the closure follows them into
// Ring::push and finds it allocation-free.
#include <vector>

#define MMR_HOT_PATH __attribute__((hot))

namespace mmr
{

struct Ring
{
    unsigned slots[4] = {};
    unsigned used = 0;

    void
    push(unsigned g)
    {
        slots[used++ & 3] = g;
    }
};

struct Arbiter
{
    std::vector<unsigned> grants;
    Ring recent;

    void
    recordGrant(unsigned g)
    {
        // BAD: reachable from the hot root below and may reallocate.
        grants.push_back(g);
    }

    MMR_HOT_PATH void
    evaluateCycle(unsigned winner)
    {
        recent.push(winner);
        Ring &ring = recent;
        ring.push(winner);
        recordGrant(winner);
    }
};

} // namespace mmr
