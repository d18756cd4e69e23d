/**
 * @file
 * Workload `spmv`: a closed loop of Section 5 coordinated tunings, as
 * `hwsw spmv` does them: generate the matrix, build the 64 BCSR
 * variants, simulate 500 training and validation points, fit the
 * model and run the three tuning strategies. Operations cycle over a
 * fixed list of Table 4 analogs of differing nnz, starting at entry
 * --seed mod 6; the input family of --seed drives the matrix generator
 * and the tuner's sampling.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "spmv/bcsr.hpp"
#include "spmv/exec.hpp"
#include "spmv/matgen.hpp"
#include "spmv/model.hpp"
#include "spmv/tuner.hpp"

namespace perfbench {

using namespace hwsw;

namespace {

/** Table 4 analogs from 64K to 1.6M nnz (before scaling). */
const std::vector<std::string> kMatrices = {
    "bayer02", "memplus", "crystk02", "bcsstk35", "raefsky3", "3dtube",
};
constexpr double kScale = 0.15; ///< `hwsw spmv` default
constexpr double kNominalOpSeconds = 1.7; ///< sizes rounds to --seconds

/** Same point, simulated again outside the tuner. */
bool
reproduces(const spmv::CsrMatrix &csr, const spmv::TunePoint &p,
           const spmv::SimOptions &sim)
{
    const auto variant = spmv::BcsrStructure::fromCsr(csr, p.br, p.bc);
    return spmv::simulateSpmv(variant, p.cache, sim).mflops == p.mflops;
}

} // namespace

RunResult
runSpmv(const Options &opts, Tracer &tracer)
{
    RunResult r;
    r.threads = "driver threads 1, connections 0";

    // Set-up: resolve the matrix list against Table 4. Sampled
    // before every operation.
    std::vector<spmv::MatrixInfo> infos;
    std::vector<double> setup_s;
    auto sampleSetup = [&] {
        sampleSetupSeconds(51, 2000, [&] {
            infos.clear();
            for (const std::string &name : kMatrices)
                infos.push_back(spmv::matrixInfo(name));
        }, setup_s);
    };
    sampleSetup();

    std::vector<double> latency, traced_latency, untraced_latency;
    std::vector<double> log_err, log_speedup;
    std::vector<double> sim_calls, sim_accesses, sim_seconds;

    auto runOp = [&](std::size_t k, bool traced_op) {
        const std::size_t m =
            ((opts.trace ? k / 2 : k) + opts.seed) % infos.size();
        const std::uint64_t op_seed =
            mixSeed(inputFamily(opts.seed), 2000 + m);
        spmv::TunerOptions topts;
        topts.seed = mixSeed(op_seed, 1);
        topts.sim.seed = mixSeed(op_seed, 2);
        Tracer off(false);
        Tracer &t = traced_op ? tracer : off;
        t.setOp(k);

        const auto t0 = Clock::now();
        std::optional<spmv::CsrMatrix> matrix;
        spmv::TuneOutcome o;
        {
            Scoped op(t, "spmv.op");
            {
                Scoped span(t, "spmv.matgen");
                matrix = spmv::generateMatrix(infos[m], kScale,
                                              mixSeed(op_seed, 3));
            }
            std::unique_ptr<spmv::CoordinatedTuner> tuner;
            {
                Scoped span(t, "spmv.tuner_build");
                tuner = std::make_unique<spmv::CoordinatedTuner>(
                    *matrix, topts);
            }
            Scoped span(t, "spmv.tune");
            o = tuner->tune();
        }
        const double sec = secondsBetween(t0, Clock::now());
        const spmv::CsrMatrix &csr = *matrix;
        ++r.attempted;
        latency.push_back(sec);
        (traced_op ? traced_latency : untraced_latency).push_back(sec);

        // Checks: every reported point re-simulates to the same
        // Mflop/s, and coordinated tuning beats the untuned baseline
        // (the direction of Fig. 16).
        bool ok = true;
        for (const spmv::TunePoint *p :
             {&o.baseline, &o.appTuned, &o.archTuned, &o.coordinated})
            ok = ok && reproduces(csr, *p, topts.sim);
        r.check(ok, "spmv: " + kMatrices[m] +
                        ": a tuned point does not re-simulate to its "
                        "reported Mflop/s");
        const bool wins = o.coordinated.mflops > o.baseline.mflops;
        r.check(wins, "spmv: " + kMatrices[m] +
                          ": coordinated point does not beat the "
                          "baseline");
        if (!ok || !wins)
            ++r.failed;
        // One value per matrix: the first round covers every matrix.
        if (k < infos.size() * (opts.trace ? 2 : 1) &&
            (!opts.trace || k % 2 == 0)) {
            log_err.push_back(
                std::log(100.0 * o.modelMetrics.medianAbsPctError));
            log_speedup.push_back(
                std::log(o.coordinated.mflops / o.baseline.mflops));
        }

        if (traced_op) {
            // Layers that run only inside the tuner's constructor:
            // the same public calls on the same inputs.
            std::vector<spmv::BcsrStructure> variants;
            {
                Scoped span(t, "spmv.bcsr");
                for (std::int32_t br = 1; br <= spmv::kMaxBlockDim; ++br)
                    for (std::int32_t bc = 1; bc <= spmv::kMaxBlockDim;
                         ++bc)
                        variants.push_back(
                            spmv::BcsrStructure::fromCsr(csr, br, bc));
            }
            std::vector<spmv::SpmvSample> samples;
            double accesses = 0.0, seconds = 0.0;
            for (const std::uint64_t s : {topts.seed, topts.seed + 1}) {
                Rng rng(s);
                const std::size_t n = s == topts.seed
                    ? topts.trainingSamples
                    : topts.validationSamples;
                for (std::size_t i = 0; i < n; ++i) {
                    const auto br = 1 + rng.nextInt(spmv::kMaxBlockDim);
                    const auto bc = 1 + rng.nextInt(spmv::kMaxBlockDim);
                    const auto cache =
                        spmv::SpmvCacheConfig::randomSample(rng);
                    const auto &v =
                        variants[(br - 1) * spmv::kMaxBlockDim + bc - 1];
                    const auto s0 = Clock::now();
                    spmv::SpmvResult res;
                    {
                        Scoped span(t, "spmv.simulate");
                        res = spmv::simulateSpmv(v, cache, topts.sim);
                    }
                    seconds += secondsBetween(s0, Clock::now());
                    accesses += res.dAccesses + res.iAccesses;
                    if (s == topts.seed)
                        samples.push_back(
                            spmv::SpmvSample::make(v, cache, res));
                }
            }
            sim_calls.push_back(static_cast<double>(
                topts.trainingSamples + topts.validationSamples));
            sim_accesses.push_back(accesses);
            sim_seconds.push_back(seconds);
            spmv::SpmvModel model(spmv::SpmvTarget::Mflops);
            Scoped span(t, "spmv.model_fit");
            model.fit(samples);
        }
    };

    // Whole rounds of the matrix list, as many as --seconds holds at
    // the nominal tuning time, so every run covers each matrix equally.
    // The traced run does one round, each matrix untraced then traced.
    const std::size_t rounds = opts.trace
        ? 1
        : std::max<std::size_t>(
              1, static_cast<std::size_t>(std::lround(
                     opts.seconds /
                     (kNominalOpSeconds *
                      static_cast<double>(infos.size())))));
    const std::size_t ops = rounds * infos.size() * (opts.trace ? 2 : 1);
    for (std::size_t k = 0; k < ops; ++k) {
        sampleSetup();
        runOp(k, opts.trace && k % 2 == 1);
    }

    auto geomean = [](const std::vector<double> &logs) {
        double sum = 0.0;
        for (double l : logs)
            sum += l;
        return std::exp(sum / static_cast<double>(logs.size()));
    };
    const double speedup = geomean(log_speedup);
    const double model_err = geomean(log_err);

    if (!opts.trace) {
        const double p50 = median(latency);
        r.add("setup_s", median(setup_s), "s");
        r.add("latency_p50_ms", 1e3 * p50, "ms");
        // Fewer than 40 operations a run: the tail is the median.
        r.add("latency_tail_ms", 1e3 * p50, "ms");
        // One closed-loop client: the rate it sustains.
        r.add("max_rate_per_s", 1.0 / p50, "1/s");
        r.add("model_err_pct", model_err, "%");
        r.add("speedup_x", speedup, "x");
        r.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        auto ms = [&](const char *name) {
            return 1e3 * tracer.medianSelfPerOp(name);
        };
        r.add("spmv.matgen_ms", ms("spmv.matgen"), "ms");
        r.add("spmv.bcsr_ms", ms("spmv.bcsr"), "ms");
        r.add("spmv.simulate_ms", ms("spmv.simulate"), "ms");
        r.add("spmv.simulate_calls", median(sim_calls), "count");
        double acc = 0.0, sec = 0.0;
        for (std::size_t i = 0; i < sim_accesses.size(); ++i) {
            acc += sim_accesses[i];
            sec += sim_seconds[i];
        }
        r.add("spmv.sim_accesses_per_s", acc / sec, "1/s");
        r.add("spmv.model_fit_ms", ms("spmv.model_fit"), "ms");
        r.add("spmv.tune_ms", ms("spmv.tune"), "ms");
        const double base = median(untraced_latency);
        r.add("trace.overhead_pct",
              100.0 * (median(traced_latency) - base) / base, "%");
    }
    std::printf("spmv: %llu tunings over %zu matrices, p50 %.1f ms, "
                "model error geomean %.1f%%, coordinated/baseline geomean "
                "%.2fx\n",
                static_cast<unsigned long long>(r.attempted),
                infos.size(), 1e3 * median(latency), model_err,
                speedup);
    return r;
}

} // namespace perfbench
