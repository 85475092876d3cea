// Epoch-pinned Database reads carry an unconditional caller-locks contract:
// the shared side of mutex() must be held across the whole read
// (MAD_REQUIRES_SHARED). Calling one without the lock must not compile.
#include "storage/database.h"

int main() {
  mad::Database db("neg");
  mad::ReadView view{0, 0};
#if defined(MISUSE)
  // error: requires holding mutex 'db.mu_'
  (void)db.LookupByAttributeAt("part", "name", mad::Value("x"), view);
#else
  mad::ReaderLock lock(db.mutex());
  (void)db.LookupByAttributeAt("part", "name", mad::Value("x"), view);
#endif
  return 0;
}
