/**
 * @file
 * One cold train-and-save, as `hwsw save` does it, with every input
 * derived from one operation seed. The serve workload reuses it to
 * make the model it serves.
 */
#ifndef PERFBENCH_TRAIN_HPP
#define PERFBENCH_TRAIN_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/genetic.hpp"
#include "core/model.hpp"
#include "core/sampler.hpp"
#include "trace.hpp"
#include "workload/phase.hpp"

namespace perfbench {

/** The CLI's scale: 7 apps x 16 shards x 16K ops, 150 pairs/app. */
inline constexpr std::size_t kShardLength = 16384;
inline constexpr std::size_t kShardsPerApp = 16;
inline constexpr std::size_t kPairsPerApp = 150;
inline constexpr std::size_t kValidationPairs = 40;
inline constexpr std::size_t kGenerations = 12;
inline constexpr std::size_t kPopulation = 24;
/** One search thread: with two, an operation waits for whichever of
 *  its vCPUs the host serves last, and identical runs drifted 32%
 *  apart between two sets on a 4-vCPU host. */
inline constexpr unsigned kSearchThreads = 1;

struct TrainOutput
{
    std::vector<hwsw::wl::AppSpec> apps;
    std::unique_ptr<hwsw::core::SpaceSampler> sampler;
    hwsw::core::Dataset train;
    hwsw::core::GaResult search;
    hwsw::core::HwSwModel model;
    bool saved = false;
};

/** Every seed one train-and-save consumes. */
struct TrainSeeds
{
    bool reseedApps = true; ///< false: the suite's own app seeds
    std::uint64_t apps = 0; ///< base of the per-app shard seeds
    std::uint64_t train = 1;
    std::uint64_t validation = 2;
    std::uint64_t search = 42;

    /** All seeds derived from one operation seed. */
    static TrainSeeds fromOpSeed(std::uint64_t op_seed);
};

/** The seeds `hwsw save` uses. */
inline constexpr TrainSeeds kCliSeeds{false, 0, 1, 2, 42};

/**
 * sample -> profile -> search -> fit -> validate -> atomic save to
 * @p path. Spans (when tracing) wrap each public call.
 */
TrainOutput trainAndSave(const TrainSeeds &seeds, const std::string &path,
                         Tracer &tracer);

/**
 * Held-out median absolute percentage error of @p model, and of the
 * per-application training-mean predictor, on @p held_out.
 */
struct HeldOutError
{
    double model = 0.0;
    double trainingMean = 0.0;
};
HeldOutError heldOutError(const hwsw::core::HwSwModel &model,
                          const hwsw::core::Dataset &train,
                          const hwsw::core::Dataset &held_out);

} // namespace perfbench

#endif // PERFBENCH_TRAIN_HPP
