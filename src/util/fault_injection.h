#ifndef XMARK_UTIL_FAULT_INJECTION_H_
#define XMARK_UTIL_FAULT_INJECTION_H_

// Deterministic fault-injection probes for robustness testing.
//
// A probe site is a named point in the code where a scarce-resource
// failure can be simulated: the site evaluates XMARK_FAULT_POINT("name")
// and, when the test harness has armed that name, the macro returns true
// exactly at the armed hit count — the site then takes its failure path
// (return a Status, fall back to a serial drain, ...). Production builds
// compile the macro to a constant false, so probe sites cost nothing and
// cannot fire.
//
// Sites are registered centrally in kFaultSites below: the governance
// test loops over FaultSites() and arms each one in turn, which keeps the
// "every failure path has been walked under ASan" guarantee mechanical —
// adding a probe without listing it here trips the XMARK_CHECK inside
// ShouldFail on first execution (fault builds only).
//
// Arming is by site name + countdown: Arm("x", n) makes the (n+1)-th hit
// of site "x" fire once; ArmSticky keeps it firing on every later hit
// (modelling persistent scarcity, e.g. a saturated pool). All state is
// global and mutex-guarded — tests arm/disarm around single-threaded
// setup, while hits may come from any pool worker.

#include <cstddef>
#include <span>
#include <string_view>

#ifndef XMARK_FAULT_INJECTION
#define XMARK_FAULT_INJECTION 0
#endif

namespace xmark::fault {

/// Every probe site compiled into the library. The names are the contract
/// between the code and the fault-injection CI job; keep them stable.
inline constexpr std::string_view kFaultSites[] = {
    "parser/module",         // ParseQueryText: whole-module parse fails
    "plan_cache/compile",    // PlanCache::GetOrCompile: compile fn fails
    "thread_pool/submit",    // ThreadPool::TrySubmit: pool reports saturation
    "exec/pipeline_drain",   // Evaluator's fused FLWOR loop: one batch of
                             // bindings fails
    "exec/hash_join_build",  // HashJoinExec::Build: table build fails
    "exec/band_join_build",  // BandJoinIndex::Build: domain build fails
    "exec/construct",        // ConstructExec::BuildElement: node alloc fails
    "engine/load_store",     // BuildStore (engine.cc): a load or G's
                             // per-query reload fails
};

/// All registered site names, for harnesses that loop over them.
std::span<const std::string_view> FaultSites();

/// Arms `site`: its (countdown+1)-th hit after this call fires once, then
/// the site disarms itself. Replaces any previous arming of any site
/// (one armed site at a time keeps failures attributable).
void Arm(std::string_view site, int countdown);

/// Like Arm, but once the countdown is reached the site keeps firing on
/// every hit until Disarm() — models persistent scarcity.
void ArmSticky(std::string_view site, int countdown = 0);

/// Clears all armed state.
void Disarm();

/// True when `site` is armed and its countdown has elapsed. Called by the
/// XMARK_FAULT_POINT macro; checks that `site` is listed in kFaultSites.
bool ShouldFail(std::string_view site);

/// Total hits observed on the armed site since Arm (test introspection:
/// lets a harness learn how many times a site fires per query).
int ArmedSiteHits();

}  // namespace xmark::fault

#if XMARK_FAULT_INJECTION
#define XMARK_FAULT_POINT(site) (::xmark::fault::ShouldFail(site))
#else
#define XMARK_FAULT_POINT(site) (false)
#endif

#endif  // XMARK_UTIL_FAULT_INJECTION_H_
