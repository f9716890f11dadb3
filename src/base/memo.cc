#include "base/memo.h"

#include "base/failpoint.h"

namespace ccdb {

bool MemoCachesEnabled() {
  // Armed failpoints demand real execution: a memo hit would skip the very
  // stage a fault-injection test wants to reach, so the caches stand down
  // (no lookups, no inserts) while any site is armed.
  return !FailpointRegistry::Global().HasArmed();
}

}  // namespace ccdb
