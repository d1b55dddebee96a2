#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "storage/page_store.h"
#include "storage/record_store.h"

namespace asf {
namespace storage {
namespace {

/// Fresh scratch path per test; the file is removed in TearDown.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "asf_storage_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pages";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(seed + i * 37);
  }
  return data;
}

// --- PageStore ---

TEST_F(StorageTest, PageStoreAllocateWriteRead) {
  auto store = PageStore::Create(path_, 256);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const PageId a = (*store)->Allocate();
  const PageId b = (*store)->Allocate();
  EXPECT_NE(a, kNoPage);
  EXPECT_NE(b, kNoPage);
  EXPECT_NE(a, b);

  const auto page_a = Pattern(256, 1);
  const auto page_b = Pattern(256, 2);
  ASSERT_TRUE((*store)->WritePage(a, page_a.data()).ok());
  ASSERT_TRUE((*store)->WritePage(b, page_b.data()).ok());

  std::vector<std::uint8_t> out(256);
  ASSERT_TRUE((*store)->ReadPage(a, out.data()).ok());
  EXPECT_EQ(out, page_a);
  ASSERT_TRUE((*store)->ReadPage(b, out.data()).ok());
  EXPECT_EQ(out, page_b);
}

TEST_F(StorageTest, PageStoreRecyclesFreedPages) {
  auto store = PageStore::Create(path_, 256);
  ASSERT_TRUE(store.ok());
  const PageId a = (*store)->Allocate();
  const PageId b = (*store)->Allocate();
  (void)b;
  const std::size_t pages_before = (*store)->stats().file_pages;
  (*store)->Deallocate(a);
  EXPECT_EQ((*store)->stats().free_pages, 1u);
  const PageId c = (*store)->Allocate();
  EXPECT_EQ(c, a);  // LIFO recycling, no file growth
  EXPECT_EQ((*store)->stats().file_pages, pages_before);
  EXPECT_EQ((*store)->stats().free_pages, 0u);
}

TEST_F(StorageTest, PageStoreReopenAndReread) {
  const auto page_a = Pattern(256, 7);
  PageId a = kNoPage;
  PageId freed = kNoPage;
  {
    auto store = PageStore::Create(path_, 256);
    ASSERT_TRUE(store.ok());
    a = (*store)->Allocate();
    freed = (*store)->Allocate();
    ASSERT_TRUE((*store)->WritePage(a, page_a.data()).ok());
    ASSERT_TRUE((*store)->WritePage(freed, page_a.data()).ok());
    (*store)->Deallocate(freed);
    // Destructor flushes the superblock (page count + free-list head).
  }
  auto reopened = PageStore::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->page_size(), 256u);
  EXPECT_EQ((*reopened)->stats().free_pages, 1u);

  std::vector<std::uint8_t> out(256);
  ASSERT_TRUE((*reopened)->ReadPage(a, out.data()).ok());
  EXPECT_EQ(out, page_a);
  // The free list resumed: the freed page comes back before file growth.
  EXPECT_EQ((*reopened)->Allocate(), freed);
}

/// A superblock cut short or forged fails Open with a Status instead of
/// aborting a later Allocate or ReadPage.
TEST_F(StorageTest, PageStoreOpenRejectsBadSuperblocks) {
  {
    auto store = PageStore::Create(path_, 256);
    ASSERT_TRUE(store.ok());
    const PageId page = (*store)->Allocate();
    ASSERT_TRUE((*store)->WritePage(page, Pattern(256, 3).data()).ok());
  }
  std::vector<std::uint8_t> valid(512);
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(valid.data(), 1, valid.size(), f), valid.size());
    std::fclose(f);
  }
  ASSERT_TRUE(PageStore::Open(path_).ok());

  // Superblock: u64 magic @0, then u32 version @8, page_size @12,
  // file_pages @16 (2 here), free_head @20, free_pages @24.
  struct Patch {
    std::size_t offset;
    std::uint32_t value;
  };
  const struct {
    const char* label;
    std::size_t size;
    std::vector<Patch> patches;
  } kCases[] = {
      {"cut to 0 bytes", 0, {}},
      {"cut to 8 bytes", 8, {}},
      {"cut to 23 bytes", 23, {}},
      {"foreign magic", 512, {{0, 0x12345678}}},
      {"wrong version", 512, {{8, 2}}},
      {"page size 0", 512, {{12, 0}}},
      {"page size 7", 512, {{12, 7}}},
      {"page size 63", 512, {{12, 63}}},
      {"free head at file_pages", 512, {{20, 2}, {24, 1}}},
      {"free head past file_pages", 512, {{20, 1000}, {24, 1}}},
      {"free pages at file_pages", 512, {{20, 1}, {24, 2}}},
      {"free head without free pages", 512, {{20, 1}}},
  };
  for (const auto& c : kCases) {
    std::vector<std::uint8_t> bytes(valid.begin(), valid.begin() + c.size);
    for (const Patch& patch : c.patches) {
      std::memcpy(bytes.data() + patch.offset, &patch.value,
                  sizeof patch.value);
    }
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::size_t wrote =  // fwrite must not see a null buffer
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    ASSERT_EQ(wrote, bytes.size());
    EXPECT_FALSE(PageStore::Open(path_).ok()) << c.label;
  }
}

// --- BufferPool ---

TEST_F(StorageTest, PinnedFrameBlocksEviction) {
  auto store = PageStore::Create(path_, 256);
  ASSERT_TRUE(store.ok());
  BufferPool pool(store->get(), 2, ReplacementPolicy::kLru);

  PageId pinned_id = kNoPage;
  auto pinned = pool.PinNew(&pinned_id);
  ASSERT_TRUE(pinned.ok());
  **pinned = 0xAB;  // stays valid across the churn below

  // Churn many pages through the one remaining frame; the pinned frame
  // must never be chosen as a victim.
  for (int i = 0; i < 8; ++i) {
    PageId id = kNoPage;
    auto data = pool.PinNew(&id);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    pool.Unpin(id, true);
  }
  EXPECT_EQ(pool.PinCount(pinned_id), 1u);
  EXPECT_EQ(**pinned, 0xAB);
  pool.Unpin(pinned_id, true);
}

TEST_F(StorageTest, AllFramesPinnedFails) {
  auto store = PageStore::Create(path_, 256);
  ASSERT_TRUE(store.ok());
  BufferPool pool(store->get(), 2, ReplacementPolicy::kLru);

  PageId a = kNoPage;
  PageId b = kNoPage;
  ASSERT_TRUE(pool.PinNew(&a).ok());
  ASSERT_TRUE(pool.PinNew(&b).ok());

  PageId c = kNoPage;
  auto overflow = pool.PinNew(&c);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kFailedPrecondition);

  // Releasing one pin frees a frame.
  pool.Unpin(b, false);
  EXPECT_TRUE(pool.PinNew(&c).ok());
  pool.Unpin(a, false);
  pool.Unpin(c, false);
}

TEST_F(StorageTest, DirtyWriteBackRoundTrip) {
  auto store = PageStore::Create(path_, 256);
  ASSERT_TRUE(store.ok());
  BufferPool pool(store->get(), 1, ReplacementPolicy::kLru);

  PageId id = kNoPage;
  auto data = pool.PinNew(&id);
  ASSERT_TRUE(data.ok());
  const auto payload = Pattern(256, 9);
  std::copy(payload.begin(), payload.end(), *data);
  pool.Unpin(id, true);

  // Evict it (single frame) by pinning a different page, then fault the
  // original back: the dirty bytes must have survived the write-back.
  PageId other = kNoPage;
  ASSERT_TRUE(pool.PinNew(&other).ok());
  pool.Unpin(other, false);
  EXPECT_GE(pool.stats().write_backs, 1u);

  auto back = pool.Pin(id);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), *back));
  pool.Unpin(id, false);
}

TEST_F(StorageTest, LruVersusFifoEvictionOrder) {
  // Three pages, two frames. Load A then B, touch A again, then load C.
  // LRU evicts B (least recently used); FIFO evicts A (loaded first,
  // the re-touch does not refresh its stamp).
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kFifo}) {
    std::remove(path_.c_str());
    auto store = PageStore::Create(path_, 256);
    ASSERT_TRUE(store.ok());
    BufferPool pool(store->get(), 2, policy);

    PageId a = kNoPage;
    PageId b = kNoPage;
    ASSERT_TRUE(pool.PinNew(&a).ok());
    pool.Unpin(a, true);
    ASSERT_TRUE(pool.PinNew(&b).ok());
    pool.Unpin(b, true);

    ASSERT_TRUE(pool.Pin(a).ok());  // touch A
    pool.Unpin(a, false);

    PageId c = kNoPage;
    ASSERT_TRUE(pool.PinNew(&c).ok());
    pool.Unpin(c, false);

    const std::uint64_t misses_before = pool.stats().misses;
    const PageId survivor = policy == ReplacementPolicy::kLru ? a : b;
    ASSERT_TRUE(pool.Pin(survivor).ok());
    pool.Unpin(survivor, false);
    EXPECT_EQ(pool.stats().misses, misses_before)
        << ReplacementPolicyName(policy) << " should have kept the survivor";
  }
}

TEST_F(StorageTest, HitAndMissAccounting) {
  auto store = PageStore::Create(path_, 256);
  ASSERT_TRUE(store.ok());
  BufferPool pool(store->get(), 4, ReplacementPolicy::kLru);

  PageId id = kNoPage;
  ASSERT_TRUE(pool.PinNew(&id).ok());
  pool.Unpin(id, true);
  const std::uint64_t misses_after_new = pool.stats().misses;

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.Pin(id).ok());
    pool.Unpin(id, false);
  }
  EXPECT_EQ(pool.stats().hits, 3u);
  EXPECT_EQ(pool.stats().misses, misses_after_new);
  EXPECT_GT(pool.stats().HitRate(), 0.0);
  EXPECT_EQ(pool.stats().resident_bytes, 4u * 256u);
}

TEST_F(StorageTest, ParseReplacementPolicyNames) {
  ReplacementPolicy policy;
  EXPECT_TRUE(ParseReplacementPolicy("lru", &policy));
  EXPECT_EQ(policy, ReplacementPolicy::kLru);
  EXPECT_TRUE(ParseReplacementPolicy("fifo", &policy));
  EXPECT_EQ(policy, ReplacementPolicy::kFifo);
  EXPECT_FALSE(ParseReplacementPolicy("mru", &policy));
  EXPECT_EQ(ReplacementPolicyName(ReplacementPolicy::kLru), "lru");
  EXPECT_EQ(ReplacementPolicyName(ReplacementPolicy::kFifo), "fifo");
}

// --- PagedRecordStore ---

TEST_F(StorageTest, RecordRoundTripAcrossPageBoundaries) {
  auto store = PageStore::Create(path_, 128);
  ASSERT_TRUE(store.ok());
  BufferPool pool(store->get(), 2, ReplacementPolicy::kLru);
  PagedRecordStore records(&pool);

  // Empty, sub-page, exactly one page, and multi-page records.
  const std::size_t payload = records.payload_per_page();
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{17}, payload, payload * 3 + 5}) {
    const auto data = Pattern(n, static_cast<std::uint8_t>(n));
    auto ref = records.Write(data);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_TRUE(ref->valid());
    auto back = records.Read(*ref);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, data);
    ASSERT_TRUE(records.Free(*ref).ok());
  }
  // Everything freed: the next chain recycles instead of growing.
  const std::size_t pages = (*store)->stats().file_pages;
  auto ref = records.Write(Pattern(payload * 2, 5));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*store)->stats().file_pages, pages);
  ASSERT_TRUE(records.Free(*ref).ok());
}

TEST_F(StorageTest, ManyRecordsWithTinyPool) {
  auto store = PageStore::Create(path_, 128);
  ASSERT_TRUE(store.ok());
  BufferPool pool(store->get(), 2, ReplacementPolicy::kLru);
  PagedRecordStore records(&pool);

  std::vector<RecordRef> refs;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint8_t i = 0; i < 40; ++i) {
    payloads.push_back(Pattern(200 + i * 13, i));
    auto ref = records.Write(payloads.back());
    ASSERT_TRUE(ref.ok());
    refs.push_back(*ref);
  }
  // Read back in reverse so nearly every access faults through the
  // 2-frame pool.
  for (std::size_t i = refs.size(); i > 0; --i) {
    auto back = records.Read(refs[i - 1]);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, payloads[i - 1]);
  }
  EXPECT_GT(pool.stats().evictions, 0u);
}

}  // namespace
}  // namespace storage
}  // namespace asf
