/**
 * @file
 * Workload `train`: a closed loop of cold train-and-save runs.
 *
 * Operations take their seeds from a fixed rotation of kRotation
 * seeds of the input family, starting at slot --seed mod kRotation, so
 * no state carries from one operation to the next; a seed run twice
 * must reproduce the same model text.
 */
#include "train.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "common.hpp"
#include "core/search/registry.hpp"
#include "core/serialize.hpp"
#include "profiler/profiler.hpp"
#include "uarch/signature.hpp"
#include "workload/apps.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace hwsw;

namespace {

constexpr std::size_t kRotation = 8;
constexpr double kNominalOpSeconds = 2.6; ///< sizes rounds to --seconds
constexpr std::size_t kHeldOutPairs = 100; ///< per app, for the checks

} // namespace

TrainSeeds
TrainSeeds::fromOpSeed(std::uint64_t op_seed)
{
    return {true, op_seed, mixSeed(op_seed, 101), mixSeed(op_seed, 102),
            mixSeed(op_seed, 103)};
}

TrainOutput
trainAndSave(const TrainSeeds &seeds, const std::string &path,
             Tracer &tracer)
{
    TrainOutput out;
    out.apps = wl::makeSuite();
    if (seeds.reseedApps)
        for (std::size_t a = 0; a < out.apps.size(); ++a)
            out.apps[a].seed = mixSeed(seeds.apps, a);
    core::Dataset validation;
    {
        Scoped span(tracer, "core.sampler");
        core::SamplerOptions sopts;
        sopts.shardLength = kShardLength;
        sopts.shardsPerApp = kShardsPerApp;
        out.sampler =
            std::make_unique<core::SpaceSampler>(out.apps, sopts);
        out.train = out.sampler->sample(kPairsPerApp, seeds.train);
        validation =
            out.sampler->sample(kValidationPairs, seeds.validation);
    }
    {
        Scoped span(tracer, "core.search");
        core::GaOptions ga;
        ga.populationSize = kPopulation;
        ga.generations = kGenerations;
        ga.numThreads = kSearchThreads;
        ga.seed = seeds.search;
        core::GeneticSearch engine(out.train, ga);
        out.search = engine.run();
    }
    {
        Scoped span(tracer, "core.fit");
        out.model.fit(out.search.best.spec, out.train);
    }
    {
        Scoped span(tracer, "core.validate");
        (void)out.model.validate(validation);
    }
    {
        Scoped span(tracer, "core.serialize");
        out.saved = core::saveModelToFile(out.model, path);
    }
    return out;
}

HeldOutError
heldOutError(const core::HwSwModel &model, const core::Dataset &train,
             const core::Dataset &held_out)
{
    std::map<std::string, std::pair<double, std::size_t>> sums;
    for (std::size_t i = 0; i < train.size(); ++i) {
        auto &[sum, n] = sums[train[i].app];
        sum += train[i].perf;
        ++n;
    }
    std::vector<double> model_err, mean_err;
    for (std::size_t i = 0; i < held_out.size(); ++i) {
        const core::ProfileRecord &rec = held_out[i];
        const auto &[sum, n] = sums.at(rec.app);
        const double mean = sum / static_cast<double>(n);
        model_err.push_back(std::abs(model.predict(rec) - rec.perf) /
                            rec.perf);
        mean_err.push_back(std::abs(mean - rec.perf) / rec.perf);
    }
    return {median(model_err), median(mean_err)};
}

RunResult
runTrain(const Options &opts, Tracer &tracer)
{
    RunResult r;
    r.threads = "search threads 1, driver threads 1, connections 0";
    const std::string model_path = opts.workDir + "/model.txt";

    // Set-up: what `hwsw save` pays once before it trains: build the
    // application suite, check the search spec, make the output
    // directory. Sampled before every operation.
    std::vector<double> setup_s;
    auto sampleSetup = [&] {
        sampleSetupSeconds(51, 200, [&] {
            const auto apps = wl::makeSuite();
            std::string error;
            if (!core::search::validateStrategySpec("genetic", &error) ||
                apps.size() != 7)
                r.check(false, "set-up: " + error);
            std::filesystem::create_directories(opts.workDir);
        }, setup_s);
    };

    std::vector<double> latency, traced_latency, untraced_latency;
    std::vector<double> model_err, log_gain;
    std::vector<double> evaluations, fits, hit_ratio, fits_per_s;
    std::map<std::size_t, std::string> text_by_slot;
    std::size_t repeats_checked = 0;

    // One operation on rotation slot @p slot; @p timed: it counts
    // toward the metrics (the determinism re-run does not).
    auto runOp = [&](std::size_t k, std::size_t slot, bool traced_op,
                     bool timed) {
        const std::uint64_t op_seed =
            mixSeed(inputFamily(opts.seed), 1000 + slot);
        Tracer off(false);
        Tracer &t = traced_op ? tracer : off;
        t.setOp(k);
        const auto t0 = Clock::now();
        TrainOutput out;
        {
            Scoped span(t, "train.op");
            out = trainAndSave(TrainSeeds::fromOpSeed(op_seed),
                               model_path, t);
        }
        const double sec = secondsBetween(t0, Clock::now());

        // Output checks, outside the timed operation.
        bool ok = out.saved;
        core::HwSwModel loaded;
        {
            Scoped span(t, "core.serialize");
            loaded = core::loadModelFromFile(model_path);
        }
        const core::Dataset held_out =
            out.sampler->sample(kHeldOutPairs, mixSeed(op_seed, 104));
        const HeldOutError err = heldOutError(loaded, out.train, held_out);
        r.check(err.model < err.trainingMean,
                "train: held-out error " + std::to_string(err.model) +
                    " not below training-mean error " +
                    std::to_string(err.trainingMean));
        ok = ok && err.model < err.trainingMean;
        for (std::size_t i = 0; i < held_out.size(); ++i) {
            const double a = out.model.predict(held_out[i]);
            const double b = loaded.predict(held_out[i]);
            if (std::memcmp(&a, &b, sizeof a) != 0) {
                r.check(false, "train: reloaded model predicts "
                               "differently");
                ok = false;
                break;
            }
        }
        const std::string text = core::saveModelToString(loaded);
        auto [it, fresh] = text_by_slot.emplace(slot, text);
        if (!fresh) {
            ++repeats_checked;
            r.check(it->second == text,
                    "train: same seed gave different model text");
            ok = ok && it->second == text;
        }
        if (!timed) {
            r.check(ok, "train: determinism re-run failed its checks");
            return;
        }
        ++r.attempted;
        if (!ok)
            ++r.failed;
        latency.push_back(sec);
        (traced_op ? traced_latency : untraced_latency).push_back(sec);
        if (!traced_op) {
            model_err.push_back(100.0 * err.model);
            log_gain.push_back(std::log(err.trainingMean / err.model));
        } else {
            const core::SearchMetrics &m = out.search.metrics;
            evaluations.push_back(static_cast<double>(m.evaluations));
            fits.push_back(static_cast<double>(m.modelFits));
            hit_ratio.push_back(m.hitRate());
            fits_per_s.push_back(static_cast<double>(m.modelFits) /
                                 m.evalSeconds);
            // The sampler's constructor generates, profiles and
            // signs each app's shards; repeat those public calls on
            // the same inputs to split its time.
            for (const wl::AppSpec &app : out.apps) {
                std::vector<wl::Shard> shards;
                {
                    Scoped span(t, "workload.gen");
                    shards = wl::makeShards(app, kShardLength,
                                            kShardsPerApp);
                }
                {
                    Scoped span(t, "profiler.profile");
                    (void)prof::profileShards(shards, app.name);
                }
                {
                    Scoped span(t, "uarch.signature");
                    (void)uarch::computeSignatures(shards);
                }
            }
        }
    };

    // Whole rounds of the rotation, as many as --seconds holds at the
    // nominal operation time, so every run covers the same slots. The
    // traced run does half a rotation, each slot untraced then traced
    // on the same seed, so the tracing overhead is a paired difference.
    const std::size_t slots = opts.trace ? kRotation / 2 : kRotation;
    const std::size_t rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               opts.seconds / (kNominalOpSeconds *
                               static_cast<double>(kRotation)))));
    const std::size_t first = opts.seed % kRotation;
    std::size_t k = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < slots; ++i) {
            const std::size_t slot = (first + i) % kRotation;
            sampleSetup();
            runOp(k++, slot, false, true);
            if (opts.trace)
                runOp(k++, slot, true, true);
        }
    }
    // The same seed must give the same model text.
    if (repeats_checked == 0)
        runOp(k, first, false, false);

    double gain = 0.0;
    for (double g : log_gain)
        gain += g;
    gain = std::exp(gain / static_cast<double>(log_gain.size()));
    double err_mean = 0.0;
    for (double e : model_err)
        err_mean += e / static_cast<double>(model_err.size());

    if (!opts.trace) {
        const double p50 = median(latency);
        r.add("setup_s", median(setup_s), "s");
        r.add("latency_p50_ms", 1e3 * p50, "ms");
        // Fewer than 40 operations a run: no percentile above the
        // median rests on ten samples, so the tail is the median.
        r.add("latency_tail_ms", 1e3 * p50, "ms");
        // One closed-loop client: the rate it sustains.
        r.add("max_rate_per_s", 1.0 / p50, "1/s");
        r.add("model_err_pct", err_mean, "%");
        r.add("speedup_x", gain, "x");
        r.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        auto ms = [&](const char *name) {
            return 1e3 * tracer.medianSelfPerOp(name);
        };
        r.add("workload.gen_ms", ms("workload.gen"), "ms");
        r.add("profiler.profile_ms", ms("profiler.profile"), "ms");
        r.add("uarch.signature_ms", ms("uarch.signature"), "ms");
        r.add("core.sampler_ms", ms("core.sampler"), "ms");
        r.add("core.search_ms", ms("core.search"), "ms");
        r.add("core.search.evaluations", median(evaluations), "count");
        r.add("core.search.model_fits", median(fits), "count");
        r.add("core.search.cache_hit_ratio", median(hit_ratio),
              "ratio");
        r.add("stats.fits_per_s", median(fits_per_s), "1/s");
        r.add("core.fit_ms", ms("core.fit"), "ms");
        r.add("core.validate_ms", ms("core.validate"), "ms");
        r.add("core.serialize_ms", ms("core.serialize"), "ms");
        const double base = median(untraced_latency);
        r.add("trace.overhead_pct",
              100.0 * (median(traced_latency) - base) / base, "%");
    }
    std::printf("train: %llu ops over %zu seeds, p50 %.1f ms, held-out "
                "error %.1f%% (training-mean predictor %.2fx worse), "
                "%zu repeated seeds checked\n",
                static_cast<unsigned long long>(r.attempted), slots,
                1e3 * median(latency), err_mean, gain, repeats_checked);
    return r;
}

} // namespace perfbench
