/**
 * @file
 * Shared pieces of the end-to-end benchmark driver: run options, the
 * result every workload returns, and the small statistics helpers the
 * workloads use to turn raw timings into reported metrics.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string workDir; ///< scratch files (model, WAL, traces)
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports back to main(). */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Thread and connection counts, for the host fingerprint. */
    std::string threads;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** A failed output check makes the whole run incorrect. */
    void check(bool ok, const std::string &what);
};

/**
 * The input family of a --seed: seeds 0-99 share family 0, 100-199
 * family 1, and so on. A family fixes what a workload's inputs are
 * (training seeds, matrices, request rows); the seed within it picks
 * their order and, for serve, the arrival schedule. Runs of one
 * family then differ only as the host does, which is what the
 * steadiness bounds must absorb; a seed of another family is a
 * held-out input set for confirming a claim.
 */
inline std::uint64_t
inputFamily(std::uint64_t seed)
{
    return seed / 100;
}

/** Derive an independent 64-bit seed from (base, stream). */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t stream);

/** Quantile by linear interpolation; @p v need not be sorted. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Tail of a long latency series: the series is cut into consecutive
 * windows of @p window samples, each window's highest percentile with
 * ten samples beyond it is taken (p99 for a window of 1000), and the
 * median of those window tails is returned. One stall then moves one
 * window, not the run. 0 when the series fills no window.
 */
double windowedTail(const std::vector<double> &series, std::size_t window);

/** Peak resident set of this process, MB. */
double peakRssMb();

/**
 * Append to @p out @p reps samples of the time one call of @p fn
 * takes, seconds. Each sample times @p calls back-to-back calls, so a
 * set-up of a few microseconds is still timed far above the clock's
 * grain. Workloads take a batch before every operation and report the
 * median of all of them, so the set-up figure spans the same stretch
 * of the run as the operations do, not only its first milliseconds.
 */
template <typename Fn>
void
sampleSetupSeconds(int reps, int calls, Fn &&fn, std::vector<double> &out)
{
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        for (int c = 0; c < calls; ++c)
            fn();
        out.push_back(secondsBetween(t0, Clock::now()) / calls);
    }
}

RunResult runTrain(const Options &opts, Tracer &tracer);
RunResult runServe(const Options &opts, Tracer &tracer);
RunResult runSpmv(const Options &opts, Tracer &tracer);
RunResult runTune(const Options &opts, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
