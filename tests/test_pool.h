#ifndef CCDB_TESTS_TEST_POOL_H_
#define CCDB_TESTS_TEST_POOL_H_

// The pool tests hand to direct pipeline calls (QeOptions::pool,
// DatalogOptions::qe.pool, CadOptions::pool, AggregateModules, the
// numeric calls). A null pool runs a stage on the calling thread, so this
// pool is what keeps the CCDB_THREADS test legs parallel outside the
// database facade: it has EngineConfig::Process().threads runners, the
// width of every database's default session.

#include "base/config.h"
#include "base/thread_pool.h"

namespace ccdb_test {

inline ccdb::ThreadPool* ProcessPool() {
  static auto* pool =
      new ccdb::ThreadPool(ccdb::EngineConfig::Process().threads);
  return pool;
}

}  // namespace ccdb_test

#endif  // CCDB_TESTS_TEST_POOL_H_
