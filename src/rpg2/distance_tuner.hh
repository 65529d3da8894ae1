/**
 * @file
 * RPG2's prefetch-distance tuning: a binary search over candidate
 * distances that maximizes measured IPC (Section 5.1: "we tune the
 * distance using RPG2's binary search method and record the
 * performance with the optimal distance as the final report").
 *
 * The tuner is evaluation-agnostic: it calls back into a
 * caller-provided IPC oracle (in practice, a simulator run with the
 * candidate distance installed), mirroring RPG2's online
 * measure-and-adjust loop.
 */

#ifndef PROPHET_RPG2_DISTANCE_TUNER_HH
#define PROPHET_RPG2_DISTANCE_TUNER_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace prophet::rpg2
{

/** Result of a tuning session. */
struct TuneResult
{
    std::int64_t bestDistance = 0;
    double bestIpc = 0.0;
    unsigned evaluations = 0;
};

/** Tuning parameters. */
struct TunerConfig
{
    std::int64_t minDistance = 1;
    std::int64_t maxDistance = 64;
};

/**
 * Binary search over the distance range: evaluate the endpoints and
 * midpoint, then repeatedly halve toward the better-performing side,
 * exactly the shape of RPG2's runtime search.
 *
 * @param evaluate Maps a candidate distance to measured IPC.
 */
TuneResult tuneDistance(
    const std::function<double(std::int64_t)> &evaluate,
    const TunerConfig &cfg = {});

/**
 * The most evaluations tuneDistance() makes over @p cfg's range: the
 * two endpoints plus one midpoint per halving, when every halving
 * keeps the wider side (8 for [1, 64]).
 */
unsigned maxEvaluations(const TunerConfig &cfg);

} // namespace prophet::rpg2

#endif // PROPHET_RPG2_DISTANCE_TUNER_HH
