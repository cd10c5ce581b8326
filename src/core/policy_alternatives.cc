/**
 * @file
 * The two mode-knowledge alternatives paper Section 5.5 argues
 * against, implemented so the argument can be measured: exploration
 * (visit each mode and measure it) and history (assume previously
 * seen behaviour persists). Both feed the same MaxBIPS solver.
 */

#include <utility>
#include <vector>

#include "core/policies.hh"
#include "util/logging.hh"

namespace gpm
{

namespace
{

/**
 * Overlay remembered measurements onto the analytic prediction:
 * entries with a remembered (power, bips) replace the scaled ones.
 */
ModeMatrix
overlayMemory(
    const ModeMatrix &predicted,
    const std::vector<std::vector<std::pair<double, double>>> &seen)
{
    ModeMatrix m = predicted;
    for (std::size_t c = 0; c < m.numCores(); c++) {
        for (std::size_t mi = 0; mi < m.numModes(); mi++) {
            auto mode = static_cast<PowerMode>(mi);
            const auto &entry = seen[c][mi];
            if (entry.first >= 0.0) {
                m.powerW(c, mode) = entry.first;
                m.bips(c, mode) = entry.second;
            }
        }
    }
    return m;
}

/** Grow/refresh the memory table from this interval's samples. */
void
remember(std::vector<std::vector<std::pair<double, double>>> &seen,
         const std::vector<CoreSample> &samples,
         std::size_t n_modes)
{
    if (seen.size() != samples.size()) {
        seen.assign(samples.size(),
                    std::vector<std::pair<double, double>>(
                        n_modes, {-1.0, -1.0}));
    }
    for (std::size_t c = 0; c < samples.size(); c++) {
        if (!samples[c].active)
            continue;
        seen[c][samples[c].mode] = {samples[c].powerW,
                                    samples[c].bips};
    }
}

} // namespace

ExplorationPolicy::ExplorationPolicy(unsigned exploit_intervals)
    : exploitIntervals(exploit_intervals)
{
    GPM_ASSERT(exploit_intervals >= 1);
}

std::vector<PowerMode>
ExplorationPolicy::decide(const PolicyInput &in)
{
    GPM_ASSERT(in.predicted != nullptr && in.samples != nullptr);
    const std::size_t n = in.predicted->numCores();
    const std::size_t k = in.predicted->numModes();

    remember(seen, *in.samples, k);
    if (lastChoice.size() != n)
        lastChoice.assign(n, static_cast<PowerMode>(k - 1));

    if (exploring) {
        if (exploreMode < k) {
            // Visit the next mode chip-wide, slowest first so the
            // sweep starts budget-safe.
            auto mode =
                static_cast<PowerMode>(k - 1 - exploreMode);
            exploreMode++;
            std::vector<PowerMode> assign(n, mode);
            lastChoice = assign;
            return assign;
        }
        // Sweep done: solve over what was measured (all entries
        // fresh) and switch to exploitation.
        exploring = false;
        phase = 0;
        ModeMatrix measured = overlayMemory(*in.predicted, seen);
        lastChoice = MaxBipsPolicy::solve(measured, in.budgetW);
        return lastChoice;
    }

    if (++phase >= exploitIntervals) {
        exploring = true;
        exploreMode = 0;
    }
    // Hold the solved assignment between sweeps.
    return lastChoice;
}

std::vector<PowerMode>
HistoryPolicy::decide(const PolicyInput &in)
{
    GPM_ASSERT(in.predicted != nullptr && in.samples != nullptr);
    remember(seen, *in.samples, in.predicted->numModes());
    ModeMatrix m = overlayMemory(*in.predicted, seen);
    return MaxBipsPolicy::solve(m, in.budgetW);
}

} // namespace gpm
