#ifndef ASF_STORAGE_PAGE_STORE_H_
#define ASF_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// \file
/// Fixed-size file-backed page storage — the disk half of the out-of-core
/// query-state subsystem (DESIGN.md §13). A PageStore owns one file of
/// `page_size`-byte pages with an intrusive free list: Allocate() pops a
/// freed page or extends the file, Deallocate() threads the page onto the
/// list (the link lives in the page's first bytes on disk, so a reopened
/// store resumes recycling exactly where the previous session stopped).
///
/// Page 0 is the superblock (magic, page size, page count, free-list
/// head); data pages are numbered from 1, and PageId 0 doubles as the
/// "no page" sentinel. All I/O is ordinary buffered stdio — portable,
/// no O_DIRECT — with explicit offsets, so reads and writes are
/// position-independent. Debug builds checksum every page written this
/// session and verify on read (ASF_DCHECK), catching offset bugs and
/// torn in-process writes without spending on-disk format bytes.
///
/// Not thread-safe: the engine drives it from its one thread
/// (retirement and result assembly are serial by contract).

namespace asf {
namespace storage {

/// Address of one page. 0 is the superblock and serves as "no page".
using PageId = std::uint32_t;
inline constexpr PageId kNoPage = 0;

inline constexpr std::size_t kDefaultPageSize = 4096;

class PageStore {
 public:
  struct Stats {
    std::uint64_t reads = 0;        ///< pages read from disk
    std::uint64_t writes = 0;       ///< pages written to disk
    std::uint64_t allocations = 0;  ///< Allocate() calls
    std::uint64_t deallocations = 0;
    std::size_t file_pages = 0;  ///< pages in the file incl. superblock
    std::size_t free_pages = 0;  ///< pages on the free list
  };

  /// Creates a fresh store at `path` (truncating any existing file).
  static Result<std::unique_ptr<PageStore>> Create(
      const std::string& path, std::size_t page_size = kDefaultPageSize);

  /// Reopens an existing store, resuming its page count and free list.
  static Result<std::unique_ptr<PageStore>> Open(const std::string& path);

  /// Flushes the superblock and closes the file. The file persists; the
  /// owner removes it if the store was scratch (see QueryStateSpiller).
  ~PageStore();

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Reserves a page id: recycles the free-list head or extends the file.
  /// The page's bytes are unspecified until the first WritePage.
  PageId Allocate();

  /// Returns `id` to the free list. The page must have been allocated and
  /// not already freed (debug builds check double-free).
  void Deallocate(PageId id);

  /// Writes exactly page_size() bytes from `data` to page `id`.
  Status WritePage(PageId id, const void* data);

  /// Reads exactly page_size() bytes of page `id` into `out`. Debug
  /// builds verify the checksum recorded by this session's WritePage
  /// (pages written by a previous session are not checked — the sums are
  /// session-local, not on-disk).
  Status ReadPage(PageId id, void* out);

  std::size_t page_size() const { return page_size_; }
  const Stats& stats() const { return stats_; }

  /// Bytes the backing file occupies (file_pages * page_size).
  std::uint64_t file_bytes() const {
    return static_cast<std::uint64_t>(stats_.file_pages) * page_size_;
  }

  const std::string& path() const { return path_; }

 private:
  PageStore(std::FILE* file, std::string path, std::size_t page_size);

  Status WriteSuperblock();

  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t page_size_ = 0;
  PageId free_head_ = kNoPage;
  Stats stats_;
#ifndef NDEBUG
  /// Session-local per-page checksums (index = PageId); 0 = unknown.
  std::vector<std::uint64_t> checksums_;
#endif
};

}  // namespace storage
}  // namespace asf

#endif  // ASF_STORAGE_PAGE_STORE_H_
