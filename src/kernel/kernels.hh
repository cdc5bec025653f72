/**
 * @file
 * The workload-kernel framework and the registry of the paper's nine
 * benchmarks (Table 2).
 *
 * Each kernel is a scaled-down, from-scratch reimplementation of the
 * *sharing structure* the paper describes for the corresponding
 * application (Section 5.1): what matters to a last-touch predictor is
 * the (PC, block) reference stream between coherence misses and
 * invalidations, and that is what these kernels reproduce. Each
 * kernel's source file (src/kernel/<name>.cc) quotes the paper's
 * characterization of the application and notes the structure it
 * reproduces.
 */

#ifndef LTP_KERNEL_KERNELS_HH
#define LTP_KERNEL_KERNELS_HH

#include <memory>
#include <string>
#include <vector>

#include "kernel/layout.hh"
#include "kernel/task.hh"
#include "kernel/thread_ctx.hh"
#include "mem/memory_values.hh"

namespace ltp
{

/** Generic kernel sizing knobs (interpretation is per kernel). */
struct KernelConfig
{
    unsigned nodes = 32;  //!< number of threads == DSM nodes
    unsigned iters = 4;   //!< outer iterations
    unsigned size = 64;   //!< primary problem dimension (per kernel)
    unsigned size2 = 0;   //!< secondary dimension (per kernel; 0 = default)
    std::uint64_t seed = 1;
};

/**
 * A workload kernel. setup() runs once (plain code) to lay out shared
 * memory; run() is started once per node as a coroutine.
 */
class KernelBase
{
  public:
    virtual ~KernelBase() = default;

    virtual std::string name() const = 0;

    /** Lay out shared regions and initialize simulated memory. */
    virtual void setup(AddressSpace &as, MemoryValues &mem,
                       const KernelConfig &cfg) = 0;

    /** The per-thread program. */
    virtual Task<void> run(ThreadCtx &ctx) = 0;

    const KernelConfig &config() const { return cfg_; }

  protected:
    KernelConfig cfg_;
};

/** Instantiate a kernel by name; throws std::invalid_argument if unknown. */
std::unique_ptr<KernelBase> makeKernel(const std::string &name);

/** The nine benchmark names, in the paper's (alphabetical) order. */
const std::vector<std::string> &allKernelNames();

/**
 * The default (scaled) input configuration for a kernel — our analogue
 * of Table 2.
 */
KernelConfig defaultConfig(const std::string &name);

/** One-line description of a kernel's input, for report headers. */
std::string describeConfig(const std::string &name,
                           const KernelConfig &cfg);

} // namespace ltp

#endif // LTP_KERNEL_KERNELS_HH
