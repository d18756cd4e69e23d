/**
 * @file
 * Workload `tune`: closed-loop tuner steps over a drifting SpMV plant,
 * as `hwsw tune --backend spmv --journal-dir DIR` runs them. Each step
 * polls one observation (one simulateSpmv), appends it to the fsync'd
 * WAL, scores it, feeds the drift detector and the online updater, and
 * every few steps syncs: re-specifies on drift, publishes, actuates.
 * A run holds thousands of steps and one scripted drift.
 *
 * The plant takes no seed (its telemetry seeds are fixed), and the
 * drift step and initial candidate are fixed too, so every run replays
 * the same scenario. That keeps the adaptation check below a
 * deterministic operation: it is counted once per run, and its
 * outcome cannot change with --seed.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/manager.hpp"
#include "tune/controller.hpp"
#include "tune/spmv_plant.hpp"

namespace perfbench {

using namespace hwsw;

namespace {

constexpr std::size_t kDriftAt = 200;
constexpr std::size_t kTailSteps = 400; ///< post-drift error window
/** Steps per second of --seconds: a fixed count, so every run has the
 *  same number of operations and the same share of failed ones. */
constexpr std::size_t kStepsPerSecond = 1000;
constexpr int kSetupReps = 9;
constexpr std::size_t kTailWindow = 1000; ///< tail = p99 per window

/** The plant's telemetry, with a span per poll and a copy of each
 *  observation for the output checks. */
class RecordingSource : public tune::TelemetrySource
{
  public:
    RecordingSource(tune::SpmvPlant &plant, Tracer &tracer)
        : plant_(plant), tracer_(&tracer)
    {}

    /** Where poll spans go: the run's tracer or a disabled one. */
    void traceTo(Tracer &tracer) { tracer_ = &tracer; }

    std::optional<core::ProfileRecord> poll() override
    {
        std::optional<core::ProfileRecord> rec;
        {
            Scoped span(*tracer_, "tune.poll");
            rec = plant_.poll();
        }
        if (rec)
            seen.push_back(*rec);
        return rec;
    }
    bool exhausted() const override { return plant_.exhausted(); }
    void fastForward(std::size_t n) override { plant_.fastForward(n); }

    std::vector<core::ProfileRecord> seen;

  private:
    tune::SpmvPlant &plant_;
    Tracer *tracer_;
};

tune::ControllerOptions
controllerOptions(const std::string &journal_dir)
{
    // `hwsw tune` defaults, with every thread count explicit.
    tune::ControllerOptions copts;
    copts.journalDir = journal_dir;
    copts.cadence = 4;
    copts.verifyWindow = 5;
    copts.minPredictedGain = 0.01;
    copts.drift.window = 16;
    copts.drift.hysteresis = 3;
    copts.ga.populationSize = 12;
    copts.ga.generations = 4;
    copts.ga.numThreads = 1;
    copts.manager.profilesForUpdate = 10;
    copts.manager.updateGenerations = 3;
    return copts;
}

/** The plant, its telemetry and a started controller. */
struct Loop
{
    std::unique_ptr<tune::SpmvPlant> plant;
    std::unique_ptr<RecordingSource> source;
    std::unique_ptr<tune::Controller> ctrl;
    core::Dataset bootstrap;
};

/** Mflop/s of the plant's current candidate over @p initial's, on
 *  the plant's current matrix. */
double
candidateGain(const tune::SpmvPlant &plant, std::size_t initial)
{
    constexpr std::uint64_t kSimSeed = 77;
    return plant.simulateCandidate(plant.currentCandidate(), kSimSeed) /
        plant.simulateCandidate(initial, kSimSeed);
}

} // namespace

RunResult
runTune(const Options &opts, Tracer &tracer)
{
    RunResult r;
    r.threads = "controller threads 1, updater threads 1, search "
                "threads 1 (inline), connections 0";

    tune::SpmvPlantOptions popts;
    popts.driftAt = kDriftAt;
    const tune::ControllerOptions base_opts = controllerOptions("");

    // Set-up: build the plant and its bootstrap dataset, start the
    // controller (fits the bootstrap model, opens the WAL). Repeated,
    // each time in a fresh journal directory; the last one runs. The
    // previous instance is stopped before the clock starts: its final
    // sync, snapshot and joins are not what a user pays up front.
    Loop loop;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (loop.ctrl)
            loop.ctrl->stop();
        loop.ctrl.reset();
        loop.source.reset();
        loop.plant.reset();
        const auto t0 = Clock::now();
        loop.plant = std::make_unique<tune::SpmvPlant>(popts);
        loop.source =
            std::make_unique<RecordingSource>(*loop.plant, tracer);
        loop.bootstrap = loop.plant->bootstrapDataset();
        loop.ctrl = std::make_unique<tune::Controller>(
            *loop.source, *loop.plant,
            controllerOptions(opts.workDir + "/wal-" +
                              std::to_string(rep)));
        loop.ctrl->start(loop.bootstrap);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    const double setup = median(setup_s);
    tune::Controller &ctrl = *loop.ctrl;
    const serve::SnapshotPtr frozen = ctrl.pinnedModel();
    const std::size_t initial = loop.plant->currentCandidate();

    std::vector<double> latency, traced_latency, untraced_latency;
    std::vector<double> residual;
    std::vector<double> gains; // before the drift, at the end
    Tracer off(false);
    const std::size_t steps = std::max(
        kDriftAt + 2 * kTailSteps,
        static_cast<std::size_t>(kStepsPerSecond * opts.seconds));
    for (std::size_t k = 0; k < steps; ++k) {
        // In the traced run steps alternate untraced / traced, so the
        // tracing overhead is a paired difference.
        const bool traced_step = opts.trace && k % 2 == 1;
        loop.source->traceTo(traced_step ? tracer : off);
        tracer.setOp(k);
        const auto t0 = Clock::now();
        bool ok = false;
        if (traced_step) {
            Scoped span(tracer, "tune.step");
            ok = ctrl.step();
        } else {
            ok = ctrl.step();
        }
        const double sec = secondsBetween(t0, Clock::now());
        ++r.attempted;
        if (!ok) {
            ++r.failed;
            r.check(false, "tune: the controller stopped stepping");
            break;
        }
        latency.push_back(sec);
        (traced_step ? traced_latency : untraced_latency).push_back(sec);
        residual.push_back(ctrl.lastResidual());
        if (k + 2 == kDriftAt) // the plant's last pre-drift poll
            gains.push_back(candidateGain(*loop.plant, initial));
    }
    ctrl.stop();

    // Checks: drift detected after the scripted onset, a re-specified
    // model published, and the post-drift error below that of a twin
    // that kept the bootstrap model.
    const tune::ControllerStats &st = ctrl.stats();
    const bool detected =
        st.firstDriftStep != tune::ControllerStats::kNone &&
        st.firstDriftStep >= popts.driftAt;
    r.check(detected, "tune: drift not detected after its onset");
    r.check(st.respecs > 0, "tune: no re-specified model published");
    r.check(st.journalErrors == 0 && st.pollFailures == 0,
            "tune: journal or poll errors");
    const std::vector<core::ProfileRecord> &seen = loop.source->seen;
    std::vector<double> tail_err, frozen_err;
    const std::size_t tail_from =
        seen.size() > kTailSteps ? seen.size() - kTailSteps : 0;
    for (std::size_t i = tail_from; i < seen.size(); ++i) {
        tail_err.push_back(residual[i]);
        frozen_err.push_back(
            std::abs(frozen->model.predict(seen[i]) - seen[i].perf) /
            seen[i].perf);
    }
    // The adaptation check is one operation of the run. When it
    // fails it is counted as failed, not as an incorrect run: the
    // scenario is fixed, so it fails the same way every time.
    const double err = median(tail_err), twin = median(frozen_err);
    ++r.attempted;
    if (err >= twin) {
        ++r.failed;
        std::fprintf(stderr,
                     "tune: adaptation check failed: post-drift error "
                     "%.4f not below the frozen bootstrap model's "
                     "%.4f\n",
                     err, twin);
    }
    gains.push_back(candidateGain(*loop.plant, initial));
    const double speedup = std::sqrt(gains[0] * gains[1]);

    if (!opts.trace) {
        r.add("setup_s", setup, "s");
        r.add("latency_p50_ms", 1e3 * median(latency), "ms");
        r.add("latency_tail_ms", 1e3 * windowedTail(latency, kTailWindow),
              "ms");
        // One closed-loop client: the rate it sustains.
        r.add("max_rate_per_s", 1.0 / median(latency), "1/s");
        r.add("model_err_pct", 100.0 * err, "%");
        r.add("speedup_x", speedup, "x");
        r.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        // The manager's re-specification runs on the updater thread:
        // replay the same observations through a replica manager and
        // time the observe() calls that re-specify.
        core::ModelManager replica(loop.bootstrap, base_opts.ga,
                                   base_opts.manager);
        replica.bootstrapModel();
        std::vector<double> respec_s;
        for (std::size_t i = 0; i < seen.size(); ++i) {
            tracer.setOp(i);
            const auto t0 = Clock::now();
            core::Observation o;
            {
                Scoped span(tracer, "core.observe");
                o = replica.observe(seen[i]);
            }
            if (o == core::Observation::Updated)
                respec_s.push_back(secondsBetween(t0, Clock::now()));
        }
        auto stage = [&](tune::Stage s) { return ctrl.stageSummary(s); };
        r.add("tune.poll_ms", 1e3 * tracer.medianSelfPerOp("tune.poll"),
              "ms");
        r.add("tune.detect_us", 1e6 * stage(tune::Stage::Detect).p50,
              "us");
        r.add("serve.journal_append_ms",
              1e3 * stage(tune::Stage::Journal).p50, "ms");
        r.add("core.predict_us", 1e6 * stage(tune::Stage::Predict).p50,
              "us");
        r.add("core.respec_ms", 1e3 * median(respec_s), "ms");
        r.add("tune.respecs", static_cast<double>(respec_s.size()),
              "count");
        r.add("tune.actuations", static_cast<double>(st.actuations),
              "count");
        r.add("tune.rollbacks", static_cast<double>(st.rollbacks),
              "count");
        r.add("tune.detect_obs",
              detected ? static_cast<double>(st.firstDriftStep -
                                             popts.driftAt + 1)
                       : 0.0,
              "obs");
        r.add("spmv.simulate_calls", static_cast<double>(seen.size()),
              "count");
        const double base = median(untraced_latency);
        r.add("trace.overhead_pct",
              100.0 * (median(traced_latency) - base) / base, "%");
    }
    std::printf("tune: %llu steps, drift at %zu detected at %zu, %llu "
                "re-specs, %llu actuations, %llu rollbacks; post-drift "
                "error %.1f%% vs frozen %.1f%%; p50 %.3f ms\n",
                static_cast<unsigned long long>(r.attempted),
                popts.driftAt, st.firstDriftStep,
                static_cast<unsigned long long>(st.respecs),
                static_cast<unsigned long long>(st.actuations),
                static_cast<unsigned long long>(st.rollbacks), 100.0 * err,
                100.0 * twin, 1e3 * median(latency));
    return r;
}

} // namespace perfbench
