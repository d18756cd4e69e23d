/**
 * @file
 * End-to-end benchmark driver.
 *
 *   hwsw_perfbench --workload train|serve|spmv|tune --seed N
 *                  --seconds S --trace 0|1 --work-dir DIR
 *
 * Runs one workload for about S seconds of measurement, checks its
 * outputs, and prints a host fingerprint line followed, as the last
 * line, by one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones;
 * with --trace 1 the run records spans around each layer's public
 * calls and reports per-layer metrics instead.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#include "common.hpp"
#include "common/parse.hpp"

namespace perfbench {

void
RunResult::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t stream)
{
    // SplitMix64 over (base, stream): distinct streams of one base
    // seed give unrelated values.
    std::uint64_t z = base * 0x9e3779b97f4a7c15ULL + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
windowedTail(const std::vector<double> &series, std::size_t window)
{
    const double q = 1.0 - 10.0 / static_cast<double>(window);
    std::vector<double> tails;
    for (std::size_t lo = 0; lo + window <= series.size(); lo += window) {
        const auto first =
            series.begin() + static_cast<std::ptrdiff_t>(lo);
        tails.push_back(quantile(
            std::vector<double>(first,
                                first + static_cast<std::ptrdiff_t>(window)),
            q));
    }
    return median(std::move(tails));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace perfbench

namespace {

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: hwsw_perfbench --workload "
                 "train|serve|spmv|tune --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
}

void
printResult(const RunResult &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            const auto v = hwsw::parseUnsigned(value);
            if (!v)
                return usage();
            opts.seed = *v;
        } else if (flag == "--seconds") {
            const auto v = hwsw::parseDouble(value);
            if (!v || *v <= 0.0 || *v > 600.0)
                return usage();
            opts.seconds = *v;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage();
            opts.trace = value == "1";
        } else if (flag == "--work-dir") {
            opts.workDir = value;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || opts.workDir.empty())
        return usage();

    RunResult (*run)(const Options &, Tracer &) = nullptr;
    if (opts.workload == "train")
        run = runTrain;
    else if (opts.workload == "serve")
        run = runServe;
    else if (opts.workload == "spmv")
        run = runSpmv;
    else if (opts.workload == "tune")
        run = runTune;
    else
        return usage();

    // Each run gets its own scratch directory, removed at the end.
    opts.workDir += "/" + opts.workload + "-" +
        std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(opts.workDir, ec);
    std::filesystem::create_directories(opts.workDir, ec);
    if (ec) {
        std::fprintf(stderr, "error: cannot create %s\n",
                     opts.workDir.c_str());
        return 1;
    }

    Tracer tracer(opts.trace);
    RunResult result;
    try {
        result = run(opts, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s workload threw: %s\n",
                     opts.workload.c_str(), e.what());
        std::filesystem::remove_all(opts.workDir, ec);
        return 1;
    }
    if (opts.trace) {
        const std::string path =
            opts.workDir + "/../trace-" + opts.workload + "-seed" +
            std::to_string(opts.seed) + ".jsonl";
        if (tracer.write(path))
            std::printf("spans: %zu written to %s\n",
                        tracer.spans().size(), path.c_str());
    }
    std::filesystem::remove_all(opts.workDir, ec);

#if defined(__clang__)
    const char *compiler = "clang++";
#else
    const char *compiler = "g++";
#endif
    std::printf("fingerprint {\"nproc\": %ld, \"compiler\": \"%s %s\", "
                "\"build_type\": \"%s\", \"HWSW_NATIVE\": \"%s\", "
                "\"threads\": \"%s\"}\n",
                ::sysconf(_SC_NPROCESSORS_ONLN), compiler, __VERSION__,
                HWSW_BUILD_TYPE, HWSW_NATIVE_FLAG,
                result.threads.c_str());
    printResult(result);
    return 0;
}
