/**
 * @file
 * Microbenchmarks (google-benchmark) of the global manager's
 * decision kernels, supporting the paper's Section 5.3/5.5 state-
 * space discussion: the modes^cores state space that exhaustive
 * MaxBIPS would enumerate is contained by the one exact
 * branch-and-bound search (MaxBIPS and its MinPower dual), and the
 * heuristic policies are near-free. Run time per decision must sit
 * far below the 500 us explore interval for the controller to be
 * realizable.
 */

#include <benchmark/benchmark.h>

#include "core/policies.hh"
#include "helpers_bench.hh"

namespace
{

using namespace gpm;

void
BM_MaxBips(benchmark::State &state)
{
    auto m = benchdata::randomMatrix(
        static_cast<std::size_t>(state.range(0)),
        static_cast<std::size_t>(state.range(1)), 42);
    std::vector<PowerMode> floor_assign(
        m.numCores(), static_cast<PowerMode>(m.numModes() - 1));
    Watts budget = m.totalPowerW(floor_assign) * 1.3;
    for (auto _ : state) {
        auto r = MaxBipsPolicy::solve(m, budget);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MaxBips)
    ->ArgsProduct({{2, 4, 8, 16, 32, 64}, {3, 5}})
    ->Unit(benchmark::kMicrosecond);

void
BM_MinPower(benchmark::State &state)
{
    auto m = benchdata::randomMatrix(
        static_cast<std::size_t>(state.range(0)),
        static_cast<std::size_t>(state.range(1)), 42);
    // The MinPower policy's default target: 95% of all-Turbo BIPS.
    std::vector<PowerMode> turbo(m.numCores(), modes::Turbo);
    double target = 0.95 * m.totalBips(turbo);
    for (auto _ : state) {
        auto r = MaxBipsPolicy::solveMinPower(m, target);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MinPower)
    ->ArgsProduct({{2, 4, 8, 16, 32, 64}, {3, 5}})
    ->Unit(benchmark::kMicrosecond);

void
BM_HeuristicPolicy(benchmark::State &state, const char *name)
{
    DvfsTable dvfs = DvfsTable::classic3();
    auto m = benchdata::randomMatrix(
        static_cast<std::size_t>(state.range(0)), 3, 7);
    std::vector<CoreSample> samples(m.numCores());
    for (std::size_t c = 0; c < samples.size(); c++) {
        samples[c].mode = modes::Turbo;
        samples[c].powerW = m.powerW(c, modes::Turbo);
        samples[c].bips = m.bips(c, modes::Turbo);
    }
    std::vector<PowerMode> floor_assign(m.numCores(), 2);
    PolicyInput in;
    in.predicted = &m;
    in.samples = &samples;
    in.budgetW = m.totalPowerW(floor_assign) * 1.3;
    in.dvfs = &dvfs;
    auto policy = makePolicy(name);
    for (auto _ : state) {
        auto r = policy->decide(in);
        benchmark::DoNotOptimize(r);
    }
}

void
BM_Priority(benchmark::State &state)
{
    BM_HeuristicPolicy(state, "Priority");
}
BENCHMARK(BM_Priority)->Arg(4)->Arg(16)->Arg(64);

void
BM_PullHiPushLo(benchmark::State &state)
{
    BM_HeuristicPolicy(state, "PullHiPushLo");
}
BENCHMARK(BM_PullHiPushLo)->Arg(4)->Arg(16)->Arg(64);

void
BM_ChipWide(benchmark::State &state)
{
    BM_HeuristicPolicy(state, "ChipWideDVFS");
}
BENCHMARK(BM_ChipWide)->Arg(4)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
