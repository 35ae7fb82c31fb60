/**
 * @file
 * Uniform-grid cell list for O(N) SPH neighbour search. Cells are
 * sized to the kernel support so neighbours of a particle lie in its
 * 27 surrounding cells.
 *
 * Traversal is organised per *cell block*: the candidate set of the
 * 27 surrounding cells is gathered once per occupied cell and reused
 * for every member particle, amortizing the hash lookups that would
 * otherwise dominate the pair loops.
 */

#ifndef TDFE_SPH_CELL_LIST_HH
#define TDFE_SPH_CELL_LIST_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/thread_pool.hh"

namespace tdfe
{

/** Sparse hashed cell grid with cell-block traversal. */
class CellList
{
  public:
    /**
     * Bin @p n particles at coordinates (x,y,z) into cells of edge
     * @p cell_size.
     */
    void build(const double *x, const double *y, const double *z,
               std::size_t n, double cell_size);

    /**
     * Gather the candidate neighbour indices of occupied cell @p b
     * (every particle in its 27 surrounding cells) into @p out,
     * replacing its contents. The caller owns @p out, so parallel
     * traversals can keep one scratch buffer per task.
     */
    void
    gatherCandidates(std::size_t b,
                     std::vector<std::size_t> &out) const
    {
        const Bin &bin = bins[b];
        out.clear();
        for (std::int64_t dk = -1; dk <= 1; ++dk) {
            for (std::int64_t dj = -1; dj <= 1; ++dj) {
                for (std::int64_t di = -1; di <= 1; ++di) {
                    const auto it = index.find(
                        key(bin.ci + di, bin.cj + dj, bin.ck + dk));
                    if (it == index.end())
                        continue;
                    const Bin &nb = bins[it->second];
                    out.insert(out.end(), nb.members.begin(),
                               nb.members.end());
                }
            }
        }
    }

    /**
     * Visit every occupied cell assigned to @p rank (cells are dealt
     * round-robin across @p nranks). @p fn receives the member
     * particle indices of the cell and the candidate indices
     * gathered from the 27 surrounding cells. Cells fan out across
     * the global pool in chunks of @p grain, each task reusing one
     * candidate buffer. Cells partition the particles, so @p fn
     * invocations touch disjoint member sets; @p fn must only write
     * per-member state. Each cell's visit is independent of the
     * chunking, so per-particle results are identical for any
     * thread count.
     */
    template <typename Fn>
    void
    forEachBlockParallel(int rank, int nranks, std::size_t grain,
                         Fn &&fn) const
    {
        parallelForRange(
            bins.size(), grain,
            [&](std::size_t bb, std::size_t be) {
                std::vector<std::size_t> candidates;
                for (std::size_t b = bb; b < be; ++b) {
                    if (static_cast<int>(
                            b % static_cast<std::size_t>(nranks)) !=
                        rank) {
                        continue;
                    }
                    gatherCandidates(b, candidates);
                    fn(bins[b].members, candidates);
                }
            });
    }

    /**
     * Visit all candidate neighbours of one point: every particle in
     * the 27 cells around it (per-particle path, used by tests and
     * one-off queries).
     */
    template <typename Fn>
    void
    forEachCandidate(double px, double py, double pz, Fn &&fn) const
    {
        const std::int64_t ci = cellCoord(px);
        const std::int64_t cj = cellCoord(py);
        const std::int64_t ck = cellCoord(pz);
        for (std::int64_t dk = -1; dk <= 1; ++dk) {
            for (std::int64_t dj = -1; dj <= 1; ++dj) {
                for (std::int64_t di = -1; di <= 1; ++di) {
                    const auto it =
                        index.find(key(ci + di, cj + dj, ck + dk));
                    if (it == index.end())
                        continue;
                    for (const std::size_t idx :
                         bins[it->second].members)
                        fn(idx);
                }
            }
        }
    }

    /** @return number of occupied cells. */
    std::size_t occupiedCells() const { return bins.size(); }

  private:
    struct Bin
    {
        std::int64_t ci, cj, ck;
        std::vector<std::size_t> members;
    };

    std::int64_t
    cellCoord(double v) const
    {
        return static_cast<std::int64_t>(std::floor(v * invCell));
    }

    static std::uint64_t
    key(std::int64_t i, std::int64_t j, std::int64_t k)
    {
        // Pack three 21-bit signed coordinates.
        const std::uint64_t bias = 1u << 20;
        return ((static_cast<std::uint64_t>(i + bias) & 0x1fffff)
                << 42) |
               ((static_cast<std::uint64_t>(j + bias) & 0x1fffff)
                << 21) |
               (static_cast<std::uint64_t>(k + bias) & 0x1fffff);
    }

    double invCell = 1.0;
    std::vector<Bin> bins;
    std::unordered_map<std::uint64_t, std::size_t> index;
};

} // namespace tdfe

#endif // TDFE_SPH_CELL_LIST_HH
