#include "rpg2/distance_tuner.hh"

#include "common/log.hh"

namespace prophet::rpg2
{

TuneResult
tuneDistance(const std::function<double(std::int64_t)> &evaluate,
             const TunerConfig &cfg)
{
    prophet_assert(cfg.minDistance <= cfg.maxDistance);

    TuneResult result;
    auto eval = [&](std::int64_t d) {
        double ipc = evaluate(d);
        ++result.evaluations;
        if (ipc > result.bestIpc) {
            result.bestIpc = ipc;
            result.bestDistance = d;
        }
        return ipc;
    };

    std::int64_t lo = cfg.minDistance;
    std::int64_t hi = cfg.maxDistance;
    double ipc_lo = eval(lo);
    double ipc_hi = eval(hi);

    while (hi - lo > 1) {
        std::int64_t mid = lo + (hi - lo) / 2;
        double ipc_mid = eval(mid);
        // Move toward the better endpoint; keep the midpoint as the
        // new opposite bound.
        if (ipc_lo >= ipc_hi) {
            hi = mid;
            ipc_hi = ipc_mid;
        } else {
            lo = mid;
            ipc_lo = ipc_mid;
        }
    }
    return result;
}

unsigned
maxEvaluations(const TunerConfig &cfg)
{
    unsigned evaluations = 2;
    // Each step keeps the wider half, ceil(width / 2).
    for (std::int64_t width = cfg.maxDistance - cfg.minDistance;
         width > 1; width -= width / 2)
        ++evaluations;
    return evaluations;
}

} // namespace prophet::rpg2
