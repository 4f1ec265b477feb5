// Fixture: std::thread constructed outside the ServicePool. Expect:
// raw-thread.
#include <thread>

namespace presat {

void fireAndJoin() {
  std::thread worker([] {});  // BAD: not behind the pool's join barrier
  worker.join();
}

}  // namespace presat
