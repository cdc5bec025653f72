/**
 * @file
 * ltp-no-wallclock: model code runs on virtual time only.
 *
 * Bans reading the host clock — std::chrono::*_clock::now(), time(),
 * clock(), gettimeofday(), clock_gettime(), timespec_get() — anywhere
 * in model code (src/dsm, src/net, src/sim, src/mem, src/proto,
 * src/predictor, src/kernel). A wall-clock value that reaches a model
 * decision makes results depend on host speed and scheduling, breaking
 * the byte-identical-dump contract the determinism matrix enforces.
 *
 * Sanctioned idiom: EventQueue::now() / ParallelScheduler ticks for model
 * time. Host-side timing belongs in src/sim/guard/ and src/obs/, which
 * this check does not cover (the driver scopes it).
 */

#ifndef LTP_TOOLS_LTP_TIDY_NO_WALLCLOCK_CHECK_HH
#define LTP_TOOLS_LTP_TIDY_NO_WALLCLOCK_CHECK_HH

#include "clang-tidy/ClangTidyCheck.h"

namespace ltp_tidy
{

class NoWallclockCheck : public clang::tidy::ClangTidyCheck
{
  public:
    NoWallclockCheck(llvm::StringRef name,
                     clang::tidy::ClangTidyContext *context)
        : ClangTidyCheck(name, context)
    {
    }

    void registerMatchers(clang::ast_matchers::MatchFinder *finder) override;
    void
    check(const clang::ast_matchers::MatchFinder::MatchResult &result)
        override;
};

} // namespace ltp_tidy

#endif // LTP_TOOLS_LTP_TIDY_NO_WALLCLOCK_CHECK_HH
