/**
 * @file
 * The one observability-category taxonomy.
 *
 * Event tracing (LTP_TRACE / LTP_TRACE_CATS, obs/trace.hh) and the
 * invariant checkers (LTP_CHECK, sim/guard/checkers.hh) share this
 * category set, so "turn on the directory" is one word in either
 * environment variable.
 *
 *   message    protocol-message lifecycle: injection, end-to-end
 *              delivery spans (NI layer, every interconnect model)
 *   link       routed-network physical links: per-hop serialization
 *              grants (with the allocated VC), escape reroutes
 *   directory  home-directory transactions: queueing + service spans
 *   cache      cache-controller state (checker category)
 *   predictor  self-invalidation predictor: predictions, issued
 *              self-invalidations, verification outcomes, mispredictions
 *   engine     parallel-engine internals: conservative windows, barrier
 *              waits, mailbox spills
 *
 * "all" selects every category. Unknown names are rejected loudly by
 * parseCategoryMask() — a typo'd LTP_TRACE_CATS must not silently trace
 * nothing.
 */

#ifndef LTP_OBS_CATEGORIES_HH
#define LTP_OBS_CATEGORIES_HH

#include <cstdint>
#include <optional>
#include <string>

namespace ltp
{
namespace obs
{

/** One observability category (see file comment for the taxonomy). */
enum class Cat : std::uint8_t
{
    Message,
    Link,
    Directory,
    Cache,
    Predictor,
    Engine,
    NumCats,
};

constexpr unsigned numCats = unsigned(Cat::NumCats);

/** Mask with every category enabled. */
constexpr std::uint32_t allCatsMask = (1u << numCats) - 1;

constexpr std::uint32_t
catBit(Cat c)
{
    return 1u << unsigned(c);
}

/** Canonical lowercase name of @p c (the LTP_TRACE/LTP_CHECK token). */
const char *catName(Cat c);

/** Parse one category token ("directory"); nullopt when unknown. */
std::optional<Cat> parseCat(const std::string &token);

/**
 * Parse a comma-separated category list ("link,engine", or "all") into
 * a bit mask. Throws std::invalid_argument naming the offending token
 * on anything that is not a category.
 */
std::uint32_t parseCategoryMask(const std::string &csv);

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_CATEGORIES_HH
