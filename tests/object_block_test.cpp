// Tests for core::ObjectBlock: in-place construction into one block sized
// up front, stable addresses, reverse-order destruction, and the errors for
// a full block or an index past the end.
#include "core/object_block.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rbs::core {
namespace {

/// Logs its id to `log` when destroyed.
class Tracked {
 public:
  Tracked(int id, std::vector<int>& log) : id_{id}, log_{log} {}
  ~Tracked() { log_.push_back(id_); }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  int id_;
  std::vector<int>& log_;
};

TEST(ObjectBlock, ConstructsInPlaceAndKeepsAddresses) {
  std::vector<int> log;
  ObjectBlock<Tracked> block{3};
  Tracked& first = block.emplace_back(0, log);
  block.emplace_back(1, log);
  block.emplace_back(2, log);
  EXPECT_EQ(&block[0], &first);
  EXPECT_EQ(block.size(), 3u);
  EXPECT_EQ(block.capacity(), 3u);
  std::vector<int> ids;
  for (const Tracked& t : block) ids.push_back(t.id());
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2}));
}

TEST(ObjectBlock, DestroysInReverseConstructionOrder) {
  std::vector<int> log;
  {
    ObjectBlock<Tracked> block{4};
    for (int i = 0; i < 3; ++i) block.emplace_back(i, log);  // one slot left unused
  }
  EXPECT_EQ(log, (std::vector<int>{2, 1, 0}));
}

TEST(ObjectBlock, FullBlockAndMissingIndexThrow) {
  std::vector<int> log;
  ObjectBlock<Tracked> block{1};
  EXPECT_THROW((void)block.at(0), std::out_of_range);
  block.emplace_back(0, log);
  EXPECT_EQ(block.at(0).id(), 0);
  EXPECT_THROW(block.emplace_back(1, log), std::length_error);
  EXPECT_THROW((void)block.at(1), std::out_of_range);
  EXPECT_TRUE(log.empty());  // the rejected object was never built
}

TEST(ObjectBlock, ConstructorThatThrowsLeavesTheBlockConsistent) {
  struct Picky {
    explicit Picky(int v) : value{v} {
      if (v < 0) throw std::invalid_argument("negative");
    }
    int value;
  };
  ObjectBlock<Picky> block{2};
  block.emplace_back(1);
  EXPECT_THROW(block.emplace_back(-1), std::invalid_argument);
  EXPECT_EQ(block.size(), 1u);
  EXPECT_EQ(block.emplace_back(2).value, 2);
}

TEST(ObjectBlock, OverAlignedObjectsStartOnTheirAlignment) {
  struct alignas(64) Line {
    std::int64_t v{0};
  };
  ObjectBlock<Line> block{5};
  for (int i = 0; i < 5; ++i) block.emplace_back();
  for (const Line& line : block) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&line) % 64, 0u);
  }
}

TEST(ObjectBlock, EmptyBlockOwnsNothing) {
  ObjectBlock<std::string> block{0};
  EXPECT_EQ(block.begin(), block.end());
  EXPECT_THROW(block.emplace_back("x"), std::length_error);
}

}  // namespace
}  // namespace rbs::core
