// Parameterized sweeps over the storage engine: B+-tree behavior across
// insertion orders and sizes, buffer-pool behavior across capacities,
// heap files across record-size mixes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace fgpm {
namespace {

// ---- B+-tree: insertion order x size -------------------------------------

enum class KeyOrder { kAscending, kDescending, kRandom, kZigzag };

const char* KeyOrderName(KeyOrder o) {
  switch (o) {
    case KeyOrder::kAscending:
      return "Ascending";
    case KeyOrder::kDescending:
      return "Descending";
    case KeyOrder::kRandom:
      return "Random";
    case KeyOrder::kZigzag:
      return "Zigzag";
  }
  return "?";
}

std::vector<uint64_t> MakeKeys(KeyOrder order, size_t n) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = i * 3 + 1;
  switch (order) {
    case KeyOrder::kAscending:
      break;
    case KeyOrder::kDescending:
      std::reverse(keys.begin(), keys.end());
      break;
    case KeyOrder::kRandom: {
      Rng rng(n * 7 + 13);
      rng.Shuffle(&keys);
      break;
    }
    case KeyOrder::kZigzag: {
      std::vector<uint64_t> zig;
      zig.reserve(n);
      size_t lo = 0, hi = n;
      while (lo < hi) {
        zig.push_back(keys[lo++]);
        if (lo < hi) zig.push_back(keys[--hi]);
      }
      keys = std::move(zig);
      break;
    }
  }
  return keys;
}

using BptParam = std::tuple<KeyOrder, size_t>;

class BPTreeOrderSweep : public ::testing::TestWithParam<BptParam> {};

TEST_P(BPTreeOrderSweep, InsertLookupScan) {
  auto [order, n] = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 64 * kPageSize);
  BPTree tree(&pool);
  auto keys = MakeKeys(order, n);
  for (uint64_t k : keys) ASSERT_TRUE(tree.Insert(k, ~k).ok());
  EXPECT_EQ(tree.NumEntries(), n);

  // Every key present with its value.
  for (size_t i = 0; i < n; i += 7) {
    auto v = tree.Lookup(keys[i]);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, ~keys[i]);
  }
  // Absent keys rejected.
  EXPECT_FALSE(tree.Lookup(0).ok());
  EXPECT_FALSE(tree.Lookup(2).ok());

  // A full scan enumerates all keys in sorted order.
  std::vector<uint64_t> scanned;
  ASSERT_TRUE(tree.ScanRange(0, ~0ull, [&](uint64_t k, uint64_t) {
                   scanned.push_back(k);
                   return true;
                 }).ok());
  EXPECT_EQ(scanned.size(), n);
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndSizes, BPTreeOrderSweep,
    ::testing::Combine(::testing::Values(KeyOrder::kAscending,
                                         KeyOrder::kDescending,
                                         KeyOrder::kRandom, KeyOrder::kZigzag),
                       ::testing::Values(size_t{100}, size_t{2000},
                                         size_t{20000})),
    [](const ::testing::TestParamInfo<BptParam>& info) {
      return std::string(KeyOrderName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ---- buffer pool: capacity sweep -----------------------------------------

class BufferPoolSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferPoolSweep, TreeCorrectUnderAnyPoolSize) {
  size_t frames = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, frames * kPageSize);
  BPTree tree(&pool);
  const uint64_t kN = 5000;
  for (uint64_t k = 0; k < kN; ++k) ASSERT_TRUE(tree.Insert(k, k * k).ok());
  for (uint64_t k = 0; k < kN; k += 97) {
    auto v = tree.Lookup(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, k * k);
  }
  // Smaller pools must evict; larger pools may not.
  if (frames <= 8) {
    EXPECT_GT(pool.stats().evictions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BufferPoolSweep,
                         ::testing::Values(size_t{4}, size_t{8}, size_t{32},
                                           size_t{128}, size_t{1024}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "frames" + std::to_string(info.param);
                         });

// ---- heap file: record-size mixes -----------------------------------------

class HeapFileSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(HeapFileSweep, MixedRecordSizesRoundTrip) {
  size_t base_size = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 16 * kPageSize);
  HeapFile hf(&pool);
  Rng rng(base_size);
  std::map<int, std::pair<Rid, std::string>> records;
  for (int i = 0; i < 500; ++i) {
    size_t len = 1 + rng.NextBounded(base_size);
    std::string rec(len, static_cast<char>('a' + (i % 26)));
    rec += std::to_string(i);
    auto rid = hf.Append({rec.data(), rec.size()});
    ASSERT_TRUE(rid.ok()) << i;
    records[i] = {*rid, rec};
  }
  HeapFile::Reader reader(hf);
  for (const auto& [i, pair] : records) {
    auto rec = reader.Read(pair.first);
    ASSERT_TRUE(rec.ok()) << i;
    EXPECT_EQ(std::string(rec->data(), rec->size()), pair.second) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RecordSizes, HeapFileSweep,
                         ::testing::Values(size_t{8}, size_t{200},
                                           size_t{2000}, size_t{7000}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "bytes" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace fgpm
