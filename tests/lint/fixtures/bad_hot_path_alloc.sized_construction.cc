// mmr-lint fixture: the hot-path-alloc rule must fire exactly once,
// on the std::vector constructed with a size on a path reached from
// the MMR_HOT_PATH root.  The reference, the empty local and the
// `::`-qualified name beside it construct nothing.
#include <string>
#include <vector>

#define MMR_HOT_PATH __attribute__((hot))

namespace mmr
{

struct Fifo
{
    std::vector<unsigned> slots;
    std::size_t found = 0;

    void
    growTo(unsigned n)
    {
        // BAD: reachable from the hot root below, and a sized vector
        // allocates its storage.
        std::vector<unsigned> bigger(n);
        slots.swap(bigger);
    }

    MMR_HOT_PATH void
    deposit(unsigned v)
    {
        std::vector<unsigned> &view = slots;
        std::vector<unsigned> none;
        found = std::string::npos;
        if (view.empty() && none.empty())
            growTo(v);
    }
};

} // namespace mmr
