#include "base/memo.h"

#include "base/config.h"
#include "base/failpoint.h"

namespace ccdb {

bool MemoCachesEnabledFor(PlanToggle memo) {
  // Armed failpoints demand real execution: a memo hit would skip the very
  // stage a fault-injection test wants to reach, so the caches stand down
  // (no lookups, no inserts) while any site is armed. This outranks any
  // configuration, as does the governor gate at each call site.
  if (FailpointRegistry::Global().HasArmed()) return false;
  switch (memo) {
    case PlanToggle::kOff:
      return false;
    case PlanToggle::kOn:
      return true;
    case PlanToggle::kAuto:
      break;
  }
  return EngineConfig::Process().qe_cache;
}

}  // namespace ccdb
