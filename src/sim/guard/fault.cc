#include "sim/guard/fault.hh"

#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace ltp
{
namespace guard
{
namespace
{

/** SplitMix64 finalizer over a composed key: the per-site pure RNG. */
std::uint64_t
siteHash(std::uint64_t seed, std::uint64_t site, std::uint64_t counter)
{
    std::uint64_t z = seed;
    z += 0x9e3779b97f4a7c15ull * (site + 1);
    z += 0x9e3779b97f4a7c15ull * (counter + 1) * 0x2545f4914f6cdd1dull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
unitInterval(std::uint64_t h)
{
    return double(h >> 11) * (1.0 / 9007199254740992.0);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::uint64_t
parseU64(const std::string &what, const std::string &v, bool allowZero)
{
    char *end = nullptr;
    unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (!end || *end != '\0' || v.empty() || (!allowZero && x == 0)) {
        throw std::invalid_argument("LTP_FAULT: " + what +
                                    ": expected a positive integer, got \"" +
                                    v + "\"");
    }
    return x;
}

double
parseProb(const std::string &what, const std::string &v)
{
    char *end = nullptr;
    double p = std::strtod(v.c_str(), &end);
    if (!end || *end != '\0' || v.empty() || p < 0.0 || p > 1.0) {
        throw std::invalid_argument("LTP_FAULT: " + what +
                                    ": expected a probability in [0,1], "
                                    "got \"" + v + "\"");
    }
    return p;
}

} // namespace

FaultPlan
parseFaultSpec(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &fault : split(spec, ';')) {
        std::size_t colon = fault.find(':');
        std::string kind = fault.substr(0, colon);
        std::string opts =
            colon == std::string::npos ? "" : fault.substr(colon + 1);

        FaultKind k;
        if (kind == "link-stall")
            k = FaultKind::LinkStall;
        else if (kind == "spill-storm")
            k = FaultKind::SpillStorm;
        else if (kind == "cal-overflow")
            k = FaultKind::CalendarOverflow;
        else if (kind == "barrier-wedge")
            k = FaultKind::BarrierWedge;
        else
            throw std::invalid_argument(
                "LTP_FAULT: unknown fault kind \"" + kind +
                "\" (know link-stall, spill-storm, cal-overflow, "
                "barrier-wedge)");
        plan.mask |= faultBit(k);

        for (const std::string &kv : split(opts, ',')) {
            std::size_t eq = kv.find('=');
            if (eq == std::string::npos) {
                throw std::invalid_argument("LTP_FAULT: " + kind +
                                            ": expected key=value, got \"" +
                                            kv + "\"");
            }
            std::string key = kv.substr(0, eq);
            std::string val = kv.substr(eq + 1);
            bool known = false;
            if (k == FaultKind::LinkStall) {
                known = true;
                if (key == "p")
                    plan.linkStallP = parseProb(kind + ":p", val);
                else if (key == "extra")
                    plan.linkStallExtra =
                        std::uint32_t(parseU64(kind + ":extra", val, false));
                else if (key == "seed")
                    plan.linkStallSeed = parseU64(kind + ":seed", val, true);
                else
                    known = false;
            } else if (k == FaultKind::CalendarOverflow) {
                known = key == "period";
                if (known)
                    plan.calOverflowPeriod =
                        parseU64(kind + ":period", val, false);
            } else if (k == FaultKind::BarrierWedge) {
                known = true;
                if (key == "round")
                    plan.wedgeRound = parseU64(kind + ":round", val, true);
                else if (key == "shard")
                    plan.wedgeShard =
                        unsigned(parseU64(kind + ":shard", val, true));
                else
                    known = false;
            }
            if (!known) {
                throw std::invalid_argument("LTP_FAULT: " + kind +
                                            ": unknown key \"" + key + "\"");
            }
        }
    }
    if (spec.empty() == false && plan.mask == 0)
        throw std::invalid_argument("LTP_FAULT: empty fault spec \"" +
                                    spec + "\"");
    return plan;
}

Tick
FaultPlan::linkStallTicks(std::uint64_t site, std::uint64_t counter) const
{
    std::uint64_t h = siteHash(linkStallSeed, site, counter);
    if (unitInterval(h) >= linkStallP)
        return 0;
    // Second, independent draw for the stall length.
    std::uint64_t h2 =
        siteHash(linkStallSeed ^ 0xa5a5a5a5a5a5a5a5ull, site, counter);
    return Tick(1 + h2 % linkStallExtra);
}

} // namespace guard
} // namespace ltp
