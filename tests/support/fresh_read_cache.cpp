// Starts every test of the binary with an empty process-wide prefix
// cache. Test datasets live in temporary directories whose paths can
// repeat, so prefixes cached by an earlier test would otherwise serve a
// later test's reads and hide the file opens its stats assertions count.

#include <gtest/gtest.h>

#include "core/read_engine.hpp"

namespace {

class FreshReadCache : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo&) override {
    spio::ReadEngine::instance().clear_cache();
  }
};

[[maybe_unused]] const bool registered = [] {
  // gtest owns and deletes appended listeners.
  ::testing::UnitTest::GetInstance()->listeners().Append(new FreshReadCache);
  return true;
}();

}  // namespace
