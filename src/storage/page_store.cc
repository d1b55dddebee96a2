#include "storage/page_store.h"

#include <cstring>

#include "common/check.h"

namespace asf {
namespace storage {

namespace {

constexpr std::uint64_t kMagic = 0x41534650414745ULL;  // "ASFPAGE"
constexpr std::uint32_t kVersion = 1;

/// Superblock layout, stored at the head of page 0.
struct Superblock {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t page_size;
  std::uint32_t file_pages;  ///< incl. the superblock page
  std::uint32_t free_head;
  std::uint32_t free_pages;
};

#ifndef NDEBUG
/// FNV-1a over one page; never returns 0 so 0 can mean "unknown".
std::uint64_t PageChecksum(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h == 0 ? 1 : h;
}
#endif

/// Create's page size rule, which Open also holds a superblock to.
bool ValidPageSize(std::size_t page_size) {
  return page_size >= 64 && page_size % 8 == 0;
}

Status SeekTo(std::FILE* file, std::uint64_t offset, const std::string& path) {
  if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IoError("page store seek failed: " + path);
  }
  return Status::OK();
}

}  // namespace

PageStore::PageStore(std::FILE* file, std::string path, std::size_t page_size)
    : file_(file), path_(std::move(path)), page_size_(page_size) {}

Result<std::unique_ptr<PageStore>> PageStore::Create(const std::string& path,
                                                     std::size_t page_size) {
  if (!ValidPageSize(page_size)) {
    return Status::InvalidArgument(
        "page size must be >= 64 and a multiple of 8");
  }
  std::FILE* file = std::fopen(path.c_str(), "wb+");
  if (file == nullptr) {
    return Status::IoError("cannot create page store file: " + path);
  }
  auto store =
      std::unique_ptr<PageStore>(new PageStore(file, path, page_size));
  store->stats_.file_pages = 1;  // the superblock
  ASF_RETURN_IF_ERROR(store->WriteSuperblock());
  return store;
}

Result<std::unique_ptr<PageStore>> PageStore::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) {
    return Status::IoError("cannot open page store file: " + path);
  }
  Superblock sb;
  if (std::fread(&sb, sizeof(sb), 1, file) != 1) {
    std::fclose(file);
    return Status::Corruption("page store superblock unreadable: " + path);
  }
  if (sb.magic != kMagic || sb.version != kVersion) {
    std::fclose(file);
    return Status::Corruption("not a page store file: " + path);
  }
  // Every later call indexes the file by these fields, so a forged value
  // must fail here rather than abort in Allocate or ReadPage. Pages past
  // EOF stay legal: allocated pages need not be written yet.
  const bool free_list_ok =
      (sb.free_head == kNoPage) == (sb.free_pages == 0) &&
      sb.free_head < sb.file_pages && sb.free_pages < sb.file_pages;
  if (!ValidPageSize(sb.page_size) || !free_list_ok) {
    std::fclose(file);
    return Status::Corruption("page store superblock is inconsistent: " +
                              path);
  }
  auto store = std::unique_ptr<PageStore>(new PageStore(file, path,
                                                        sb.page_size));
  store->stats_.file_pages = sb.file_pages;
  store->stats_.free_pages = sb.free_pages;
  store->free_head_ = sb.free_head;
  return store;
}

PageStore::~PageStore() {
  if (file_ != nullptr) {
    WriteSuperblock();  // best effort; destructor cannot report
    std::fclose(file_);
  }
}

Status PageStore::WriteSuperblock() {
  Superblock sb = {};
  sb.magic = kMagic;
  sb.version = kVersion;
  sb.page_size = static_cast<std::uint32_t>(page_size_);
  sb.file_pages = static_cast<std::uint32_t>(stats_.file_pages);
  sb.free_head = free_head_;
  sb.free_pages = static_cast<std::uint32_t>(stats_.free_pages);
  ASF_RETURN_IF_ERROR(SeekTo(file_, 0, path_));
  if (std::fwrite(&sb, sizeof(sb), 1, file_) != 1) {
    return Status::IoError("page store superblock write failed: " + path_);
  }
  std::fflush(file_);
  return Status::OK();
}

PageId PageStore::Allocate() {
  ++stats_.allocations;
  if (free_head_ != kNoPage) {
    // Pop the free list: the freed page's first bytes hold the next link.
    const PageId id = free_head_;
    std::uint32_t next = kNoPage;
    const std::uint64_t offset = static_cast<std::uint64_t>(id) * page_size_;
    ASF_CHECK(SeekTo(file_, offset, path_).ok());
    ASF_CHECK_MSG(std::fread(&next, sizeof(next), 1, file_) == 1,
                  "page store free-list link unreadable");
    free_head_ = next;
    ASF_CHECK(stats_.free_pages > 0);
    --stats_.free_pages;
    return id;
  }
  const PageId id = static_cast<PageId>(stats_.file_pages);
  ++stats_.file_pages;
  return id;
}

void PageStore::Deallocate(PageId id) {
  ASF_CHECK(id != kNoPage && id < stats_.file_pages);
  ++stats_.deallocations;
#ifndef NDEBUG
  // Walkable double-free guard would cost a set; clear the checksum so a
  // read-after-free of this session's data at least trips the DCHECK once
  // the page is recycled and rewritten.
  if (checksums_.size() > id) checksums_[id] = 0;
#endif
  // Thread the page onto the free list on disk: first 4 bytes = next link.
  const std::uint64_t offset = static_cast<std::uint64_t>(id) * page_size_;
  ASF_CHECK(SeekTo(file_, offset, path_).ok());
  ASF_CHECK_MSG(std::fwrite(&free_head_, sizeof(free_head_), 1, file_) == 1,
                "page store free-list link write failed");
  free_head_ = id;
  ++stats_.free_pages;
}

Status PageStore::WritePage(PageId id, const void* data) {
  ASF_CHECK(id != kNoPage && id < stats_.file_pages);
  const std::uint64_t offset = static_cast<std::uint64_t>(id) * page_size_;
  ASF_RETURN_IF_ERROR(SeekTo(file_, offset, path_));
  if (std::fwrite(data, 1, page_size_, file_) != page_size_) {
    return Status::IoError("page store write failed: " + path_);
  }
  ++stats_.writes;
#ifndef NDEBUG
  if (checksums_.size() <= id) checksums_.resize(id + 1, 0);
  checksums_[id] = PageChecksum(data, page_size_);
#endif
  return Status::OK();
}

Status PageStore::ReadPage(PageId id, void* out) {
  ASF_CHECK(id != kNoPage && id < stats_.file_pages);
  const std::uint64_t offset = static_cast<std::uint64_t>(id) * page_size_;
  ASF_RETURN_IF_ERROR(SeekTo(file_, offset, path_));
  const std::size_t got = std::fread(out, 1, page_size_, file_);
  if (got != page_size_) {
    // A page allocated but never written may lie beyond EOF; its contents
    // are unspecified by contract, so hand back zeros for the tail.
    std::memset(static_cast<char*>(out) + got, 0, page_size_ - got);
    std::clearerr(file_);
  }
  ++stats_.reads;
#ifndef NDEBUG
  if (checksums_.size() > id && checksums_[id] != 0) {
    ASF_DCHECK(PageChecksum(out, page_size_) == checksums_[id]);
  }
#endif
  return Status::OK();
}

}  // namespace storage
}  // namespace asf
