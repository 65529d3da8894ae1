/**
 * @file
 * The RPG2 runtime: a software-prefetch plan (kernel PC -> stride,
 * distance) produced by kernel identification and distance tuning,
 * applied during simulation via the hint-buffer mechanism the paper
 * uses to emulate inserted prefetch instructions (Section 5.1: "we
 * record the PC of identified memory instructions along with an
 * initial prefetch distance in the hint buffer. Upon encountering
 * recorded PCs, we issue a prefetch request").
 */

#ifndef PROPHET_RPG2_RPG2_HH
#define PROPHET_RPG2_RPG2_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "rpg2/kernel_id.hh"
#include "trace/generator.hh"

namespace prophet::rpg2
{

/** One armed software-prefetch site. */
struct ArmedKernel
{
    std::int64_t stride = 0;
    std::int64_t distance = 8;
};

/**
 * The software-prefetch plan the simulator consults on every demand
 * access: for a recorded kernel PC, the addresses an inserted
 * prefetch sequence would touch are (a) the kernel line `distance`
 * strides ahead and (b) the resolved indirect target at that
 * distance.
 */
class Rpg2Plan
{
  public:
    Rpg2Plan() = default;

    /** Arm a kernel with a distance. */
    void
    arm(PC pc, std::int64_t stride, std::int64_t distance)
    {
        kernels[pc] = ArmedKernel{stride, distance};
    }

    /** Change every armed kernel's distance (tuning step). */
    void setDistance(std::int64_t distance);

    /** True when no kernels qualified (every SPEC workload). */
    bool empty() const { return kernels.empty(); }

    std::size_t size() const { return kernels.size(); }

    /**
     * Addresses the inserted prefetch code would issue for a demand
     * access at (pc, addr); empty when pc is not an armed kernel.
     */
    std::vector<Addr> prefetchAddrs(
        PC pc, Addr addr, const trace::IndirectResolver *resolver) const;

    /**
     * Allocation-free variant for the record loop: appends into a
     * caller-owned scratch buffer (cleared first).
     */
    void prefetchAddrs(PC pc, Addr addr,
                       const trace::IndirectResolver *resolver,
                       std::vector<Addr> &out) const;

  private:
    FlatMap<PC, ArmedKernel> kernels;
};

/** Build an (untuned) plan from identified kernels. */
Rpg2Plan buildPlan(const std::vector<Kernel> &kernels,
                   std::int64_t initial_distance = 8);

} // namespace prophet::rpg2

#endif // PROPHET_RPG2_RPG2_HH
