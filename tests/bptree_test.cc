#include "rtree/bptree.h"

#include <map>
#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace colr {
namespace {

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree<int64_t, std::string> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
  EXPECT_EQ(tree.Find(1), nullptr);
  EXPECT_FALSE(tree.Erase(1));
  int visits = 0;
  tree.Scan(0, 100, [&](int64_t, const std::string&) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, InsertFindOverwrite) {
  BPlusTree<int64_t, std::string> tree;
  tree.Insert(5, "five");
  tree.Insert(3, "three");
  tree.Insert(9, "nine");
  EXPECT_EQ(tree.size(), 3u);
  ASSERT_NE(tree.Find(3), nullptr);
  EXPECT_EQ(*tree.Find(3), "three");
  EXPECT_EQ(tree.Find(4), nullptr);
  tree.Insert(3, "THREE");  // overwrite keeps size
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(*tree.Find(3), "THREE");
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, GrowsThroughManySplits) {
  BPlusTree<int64_t, int64_t, 8> tree;  // tiny order forces splits
  for (int64_t i = 0; i < 5000; ++i) {
    tree.Insert(i * 7 % 5000, i);
  }
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_GT(tree.height(), 3);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(tree.Find(k), nullptr) << k;
  }
}

TEST(BPlusTreeTest, ScanInOrderAndBounded) {
  BPlusTree<int64_t, int64_t, 8> tree;
  for (int64_t i = 0; i < 1000; ++i) tree.Insert(i * 2, i);  // even keys
  std::vector<int64_t> seen;
  tree.Scan(101, 299, [&](int64_t k, int64_t) {
    seen.push_back(k);
    return true;
  });
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), 102);
  EXPECT_EQ(seen.back(), 298);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1], seen[i]);
  }
  EXPECT_EQ(seen.size(), 99u);
  // Early stop.
  int visits = 0;
  tree.Scan(0, 2000, [&](int64_t, int64_t) { return ++visits < 5; });
  EXPECT_EQ(visits, 5);
}

TEST(BPlusTreeTest, EraseAndReinsert) {
  BPlusTree<int64_t, int64_t, 8> tree;
  for (int64_t i = 0; i < 300; ++i) tree.Insert(i, i);
  for (int64_t i = 0; i < 300; i += 3) {
    EXPECT_TRUE(tree.Erase(i));
  }
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.Find(3), nullptr);
  ASSERT_NE(tree.Find(4), nullptr);
  tree.Insert(3, 33);
  EXPECT_EQ(*tree.Find(3), 33);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, RandomizedAgainstStdMap) {
  BPlusTree<int64_t, int64_t, 16> tree;
  std::map<int64_t, int64_t> model;
  Rng rng(42);
  for (int step = 0; step < 20000; ++step) {
    const int64_t key = static_cast<int64_t>(rng.UniformInt(3000));
    if (rng.Bernoulli(0.7)) {
      tree.Insert(key, step);
      model[key] = step;
    } else {
      EXPECT_EQ(tree.Erase(key), model.erase(key) > 0) << step;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ASSERT_EQ(tree.size(), model.size());
  for (const auto& [k, v] : model) {
    const int64_t* found = tree.Find(k);
    ASSERT_NE(found, nullptr) << k;
    EXPECT_EQ(*found, v);
  }
  // Full scan equals the model's ordered contents.
  std::vector<std::pair<int64_t, int64_t>> scanned;
  tree.Scan(INT64_MIN, INT64_MAX, [&](int64_t k, int64_t v) {
    scanned.push_back({k, v});
    return true;
  });
  EXPECT_EQ(scanned.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : scanned) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

// Order sweep: invariants hold for every branching factor.
class BPTreeOrderSweep : public ::testing::TestWithParam<int> {};

template <int kOrder>
void RunOrderSweep() {
  BPlusTree<int64_t, int64_t, kOrder> tree;
  Rng rng(7 + kOrder);
  for (int i = 0; i < 3000; ++i) {
    tree.Insert(static_cast<int64_t>(rng.UniformInt(100000)), i);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeOrderTest, Order4) { RunOrderSweep<4>(); }
TEST(BPlusTreeOrderTest, Order8) { RunOrderSweep<8>(); }
TEST(BPlusTreeOrderTest, Order64) { RunOrderSweep<64>(); }
TEST(BPlusTreeOrderTest, Order256) { RunOrderSweep<256>(); }

}  // namespace
}  // namespace colr
