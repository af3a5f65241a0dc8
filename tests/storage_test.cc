#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/slotted_page.h"

namespace fgpm {
namespace {

TEST(PageTest, ScalarRoundTrip) {
  Page p;
  p.Write<uint64_t>(100, 0xdeadbeefcafef00dULL);
  p.Write<uint16_t>(0, 7);
  EXPECT_EQ(p.Read<uint64_t>(100), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(p.Read<uint16_t>(0), 7);
  p.Zero();
  EXPECT_EQ(p.Read<uint64_t>(100), 0u);
}

TEST(RidTest, PackUnpack) {
  Rid r{12345, 678};
  Rid s = Rid::Unpack(r.Pack());
  EXPECT_EQ(r, s);
  EXPECT_TRUE(r.valid());
  EXPECT_FALSE(Rid{}.valid());
}

TEST(DiskManagerTest, ReadWriteAndStats) {
  DiskManager disk;
  PageId a = disk.AllocatePage();
  PageId b = disk.AllocatePage();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  Page p;
  p.Write<uint32_t>(0, 99);
  ASSERT_TRUE(disk.WritePage(b, p).ok());
  Page q;
  ASSERT_TRUE(disk.ReadPage(b, &q).ok());
  EXPECT_EQ(q.Read<uint32_t>(0), 99u);
  EXPECT_EQ(disk.stats().page_reads, 1u);
  EXPECT_EQ(disk.stats().page_writes, 1u);
  EXPECT_EQ(disk.stats().pages_allocated, 2u);
  EXPECT_EQ(disk.ReadPage(42, &q).code(), StatusCode::kOutOfRange);
}

TEST(BufferPoolTest, HitAvoidsDiskRead) {
  DiskManager disk;
  BufferPool pool(&disk);
  auto g = pool.New();
  ASSERT_TRUE(g.ok());
  PageId id = g->id();
  g->MutablePage().Write<uint32_t>(0, 5);
  g->Release();
  uint64_t reads_before = disk.stats().page_reads;
  auto g2 = pool.Fetch(id);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->page().Read<uint32_t>(0), 5u);
  EXPECT_EQ(disk.stats().page_reads, reads_before);  // served from pool
  EXPECT_GE(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  DiskManager disk;
  BufferPool pool(&disk, 4 * kPageSize);  // 4 frames
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < 16; ++i) {
    auto g = pool.New();
    ASSERT_TRUE(g.ok());
    g->MutablePage().Write<uint32_t>(0, i);
    ids.push_back(g->id());
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  // Every page must read back its own value even after eviction.
  for (uint32_t i = 0; i < 16; ++i) {
    auto g = pool.Fetch(ids[i]);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page().Read<uint32_t>(0), i);
  }
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  DiskManager disk;
  BufferPool pool(&disk, 4 * kPageSize);
  std::vector<PageGuard> pins;
  for (int i = 0; i < 4; ++i) {
    auto g = pool.New();
    ASSERT_TRUE(g.ok());
    pins.push_back(std::move(*g));
  }
  auto g = pool.New();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  pins.clear();
  EXPECT_TRUE(pool.New().ok());
}

TEST(BufferPoolTest, LruEvictsOldestUnpinned) {
  DiskManager disk;
  BufferPool pool(&disk, 4 * kPageSize);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto g = pool.New();
    ASSERT_TRUE(g.ok());
    ids.push_back(g->id());
  }
  // Touch page 0 so page 1 becomes LRU.
  { auto g = pool.Fetch(ids[0]); ASSERT_TRUE(g.ok()); }
  { auto g = pool.New(); ASSERT_TRUE(g.ok()); }  // evicts ids[1]
  uint64_t misses_before = pool.stats().misses;
  { auto g = pool.Fetch(ids[0]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(pool.stats().misses, misses_before);  // still resident
  { auto g = pool.Fetch(ids[1]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(pool.stats().misses, misses_before + 1);  // was evicted
}

TEST(SlottedPageTest, InsertGetDelete) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::string a = "hello", b = "world!!";
  auto sa = sp.Insert({a.data(), a.size()});
  auto sb = sp.Insert({b.data(), b.size()});
  ASSERT_TRUE(sa && sb);
  EXPECT_EQ(sp.num_slots(), 2);
  auto ra = sp.Get(*sa);
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(std::string(ra->data(), ra->size()), a);
  auto rb = sp.Get(*sb);
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(std::string(rb->data(), rb->size()), b);
  EXPECT_TRUE(sp.Delete(*sa));
  EXPECT_FALSE(sp.Get(*sa).has_value());
  EXPECT_FALSE(sp.Delete(*sa));  // already deleted
  EXPECT_TRUE(sp.Get(*sb).has_value());
}

TEST(SlottedPageTest, FillsUntilFull) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::string rec(100, 'x');
  int count = 0;
  while (sp.Insert({rec.data(), rec.size()})) ++count;
  // 8192 / (100+4) ~ 78 records.
  EXPECT_GT(count, 70);
  EXPECT_LT(count, 82);
  EXPECT_LT(sp.FreeSpace(), rec.size());
}

TEST(SlottedPageTest, MaxRecordFitsExactly) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::string rec(SlottedPage::kMaxRecordSize, 'y');
  EXPECT_TRUE(sp.Insert({rec.data(), rec.size()}).has_value());
  std::string too_big(SlottedPage::kMaxRecordSize + 1, 'z');
  Page page2;
  SlottedPage sp2(&page2);
  sp2.Init();
  EXPECT_FALSE(sp2.Insert({too_big.data(), too_big.size()}).has_value());
}

TEST(HeapFileTest, AppendReadScan) {
  DiskManager disk;
  BufferPool pool(&disk);
  HeapFile hf(&pool);
  std::vector<Rid> rids;
  for (int i = 0; i < 1000; ++i) {
    std::string rec = "record-" + std::to_string(i);
    auto rid = hf.Append({rec.data(), rec.size()});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_EQ(hf.NumRecords(), 1000u);
  HeapFile::Reader reader(hf);
  auto rec = reader.Read(rids[537]);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(std::string(rec->data(), rec->size()), "record-537");
  int seen = 0;
  ASSERT_TRUE(hf.Scan([&](const Rid&, std::span<const char> rec) {
                 ++seen;
                 EXPECT_GT(rec.size(), 7u);
               }).ok());
  EXPECT_EQ(seen, 1000);
}

TEST(HeapFileTest, SpillsAcrossPages) {
  DiskManager disk;
  BufferPool pool(&disk);
  HeapFile hf(&pool);
  std::string big(3000, 'a');
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(hf.Append({big.data(), big.size()}).ok());
  }
  EXPECT_GE(hf.NumPages(), 5u);  // 2 per page max
}

TEST(HeapFileTest, RejectsOversizeRecord) {
  DiskManager disk;
  BufferPool pool(&disk);
  HeapFile hf(&pool);
  std::string big(kPageSize, 'a');
  EXPECT_EQ(hf.Append({big.data(), big.size()}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BPTreeTest, InsertLookupSmall) {
  DiskManager disk;
  BufferPool pool(&disk);
  BPTree tree(&pool);
  ASSERT_TRUE(tree.Insert(5, 50).ok());
  ASSERT_TRUE(tree.Insert(3, 30).ok());
  ASSERT_TRUE(tree.Insert(9, 90).ok());
  auto v = tree.Lookup(3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 30u);
  EXPECT_FALSE(tree.Lookup(4).ok());
  EXPECT_EQ(tree.NumEntries(), 3u);
  EXPECT_EQ(tree.Insert(5, 55).code(), StatusCode::kAlreadyExists);
}

TEST(BPTreeTest, UpsertOverwrites) {
  DiskManager disk;
  BufferPool pool(&disk);
  BPTree tree(&pool);
  ASSERT_TRUE(tree.Upsert(1, 10).ok());
  ASSERT_TRUE(tree.Upsert(1, 11).ok());
  EXPECT_EQ(*tree.Lookup(1), 11u);
  EXPECT_EQ(tree.NumEntries(), 1u);
}

TEST(BPTreeTest, ManyKeysWithSplits) {
  DiskManager disk;
  BufferPool pool(&disk, 64 * kPageSize);
  BPTree tree(&pool);
  const uint64_t kN = 20000;
  // Insert in shuffled order to exercise splits at every position.
  std::vector<uint64_t> keys(kN);
  for (uint64_t i = 0; i < kN; ++i) keys[i] = i * 7 + 1;
  Rng rng(77);
  rng.Shuffle(&keys);
  for (uint64_t k : keys) ASSERT_TRUE(tree.Insert(k, k * 2).ok());
  EXPECT_EQ(tree.NumEntries(), kN);
  EXPECT_GE(tree.Height(), 2u);
  for (uint64_t i = 0; i < kN; i += 97) {
    auto v = tree.Lookup(i * 7 + 1);
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, (i * 7 + 1) * 2);
  }
  EXPECT_FALSE(tree.Lookup(0).ok());
  EXPECT_FALSE(tree.Lookup(3).ok());
}

TEST(BPTreeTest, ScanRangeOrderedAndBounded) {
  DiskManager disk;
  BufferPool pool(&disk, 64 * kPageSize);
  BPTree tree(&pool);
  for (uint64_t k = 0; k < 5000; ++k) ASSERT_TRUE(tree.Insert(k * 3, k).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(tree.ScanRange(300, 600, [&](uint64_t k, uint64_t) {
                   got.push_back(k);
                   return true;
                 }).ok());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front(), 300u);
  EXPECT_EQ(got.back(), 600u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(got.size(), 101u);
}

TEST(BPTreeTest, ScanEarlyStop) {
  DiskManager disk;
  BufferPool pool(&disk);
  BPTree tree(&pool);
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  int count = 0;
  ASSERT_TRUE(tree.ScanRange(0, 99, [&](uint64_t, uint64_t) {
                   return ++count < 10;
                 }).ok());
  EXPECT_EQ(count, 10);
}

TEST(BPTreeTest, DeleteRemovesKey) {
  DiskManager disk;
  BufferPool pool(&disk);
  BPTree tree(&pool);
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  ASSERT_TRUE(tree.Delete(500).ok());
  EXPECT_FALSE(tree.Lookup(500).ok());
  EXPECT_TRUE(tree.Lookup(499).ok());
  EXPECT_TRUE(tree.Lookup(501).ok());
  EXPECT_EQ(tree.NumEntries(), 999u);
  EXPECT_EQ(tree.Delete(500).code(), StatusCode::kNotFound);
}

TEST(BPTreeTest, MatchesStdMapUnderRandomOps) {
  DiskManager disk;
  BufferPool pool(&disk, 32 * kPageSize);
  BPTree tree(&pool);
  std::map<uint64_t, uint64_t> ref;
  Rng rng(4242);
  for (int i = 0; i < 30000; ++i) {
    uint64_t k = rng.NextBounded(5000);
    switch (rng.NextBounded(3)) {
      case 0: {
        uint64_t v = rng.Next();
        ASSERT_TRUE(tree.Upsert(k, v).ok());
        ref[k] = v;
        break;
      }
      case 1: {
        bool in_ref = ref.erase(k) > 0;
        Status s = tree.Delete(k);
        EXPECT_EQ(s.ok(), in_ref);
        break;
      }
      default: {
        auto it = ref.find(k);
        auto v = tree.Lookup(k);
        if (it == ref.end()) {
          EXPECT_FALSE(v.ok());
        } else {
          ASSERT_TRUE(v.ok());
          EXPECT_EQ(*v, it->second);
        }
      }
    }
  }
  EXPECT_EQ(tree.NumEntries(), ref.size());
}

uint64_t PoolAccesses(const BufferPool& pool) {
  BufferPoolStats s = pool.stats();
  return s.hits + s.misses;
}

TEST(BPTreeTest, PointLookupCostsHeightPoolAccesses) {
  DiskManager disk;
  BufferPool pool(&disk);
  BPTree tree(&pool);
  // Sequential inserts leave leaves half full; ~200k keys reach height 3.
  for (uint64_t n : {100u, 20000u, 200000u}) {
    for (uint64_t k = tree.NumEntries(); k < n; ++k) {
      ASSERT_TRUE(tree.Insert(k, k + 1).ok());
    }
    for (uint64_t k : {uint64_t{0}, n / 2, n - 1, n + 5}) {
      uint64_t before = PoolAccesses(pool);
      auto v = tree.Lookup(k);
      EXPECT_EQ(PoolAccesses(pool) - before, tree.Height()) << n << " " << k;
      EXPECT_EQ(v.ok(), k < n);
    }
  }
  EXPECT_EQ(tree.Height(), 3u);
}

// LookupSorted must report exactly the keys Lookup finds, with their
// values, for every kind of sorted batch.
void ExpectBatchMatchesLookup(const BPTree& tree,
                              const std::vector<uint64_t>& keys) {
  std::vector<std::pair<size_t, uint64_t>> got;
  ASSERT_TRUE(tree.LookupSorted(keys, [&](size_t i, uint64_t v) {
                    got.emplace_back(i, v);
                  }).ok());
  std::vector<std::pair<size_t, uint64_t>> want;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto v = tree.Lookup(keys[i]);
    if (v.ok()) want.emplace_back(i, *v);
  }
  EXPECT_EQ(got, want);
}

TEST(BPTreeTest, LookupSortedMatchesLookup) {
  for (uint64_t n : {300u, 30000u, 200000u}) {
    DiskManager disk;
    BufferPool pool(&disk);
    BPTree tree(&pool);
    // Every third key is present, so absent keys sit between leaves too.
    for (uint64_t i = 0; i < n; ++i) ASSERT_TRUE(tree.Insert(3 * i, i).ok());
    const uint64_t last = 3 * (n - 1);
    Rng rng(n);
    auto random_batch = [&](size_t size, uint64_t hi) {
      std::vector<uint64_t> keys;
      for (size_t j = 0; j < size; ++j) keys.push_back(rng.NextBounded(hi));
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("n=" + std::to_string(n) + " round=" +
                   std::to_string(round) +
                   " height=" + std::to_string(tree.Height()));
      ExpectBatchMatchesLookup(tree, {});
      ExpectBatchMatchesLookup(tree, {0, last, last + 1});
      // Sparse: duplicates are likely, gaps span many leaves.
      ExpectBatchMatchesLookup(tree, random_batch(200, last + 10));
      // Dense: runs through consecutive leaves with absent keys mixed in.
      ExpectBatchMatchesLookup(tree, random_batch(3 * n, last + 10));
      std::vector<uint64_t> dups = {0, 0, 1, 1, last, last, last + 3,
                                    last + 3};
      ExpectBatchMatchesLookup(tree, dups);
      // A dense run costs one pool access per leaf plus the descent, far
      // below a descent per key.
      std::vector<uint64_t> all;
      ASSERT_TRUE(tree.ScanRange(0, ~0ull, [&](uint64_t k, uint64_t) {
                        all.push_back(k);
                        return true;
                      }).ok());
      uint64_t before = PoolAccesses(pool);
      size_t found = 0;
      ASSERT_TRUE(tree.LookupSorted(all, [&](size_t, uint64_t) {
                        ++found;
                      }).ok());
      EXPECT_EQ(found, tree.NumEntries());
      // Split leaves keep >= 255 keys; only the rightmost may hold fewer.
      uint64_t leaves = (tree.NumEntries() + 254) / 255 + 1;
      EXPECT_LE(PoolAccesses(pool) - before, tree.Height() + leaves);
      // Upsert: overwrite some values, add keys that split leaves.
      for (uint64_t i = 0; i < n; i += 7) {
        ASSERT_TRUE(tree.Upsert(3 * i, ~i).ok());
        ASSERT_TRUE(tree.Upsert(3 * i + 1, i).ok());
      }
    }
  }
}

TEST(BPTreeTest, WorksWithTinyBufferPool) {
  // Tree much larger than the pool: every level traversal may hit disk.
  DiskManager disk;
  BufferPool pool(&disk, 8 * kPageSize);
  BPTree tree(&pool);
  for (uint64_t k = 0; k < 10000; ++k) ASSERT_TRUE(tree.Insert(k, ~k).ok());
  for (uint64_t k = 0; k < 10000; k += 503) {
    auto v = tree.Lookup(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, ~k);
  }
  EXPECT_GT(disk.stats().page_reads, 0u);
}

}  // namespace
}  // namespace fgpm
