#include "storage/record_store.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace asf {
namespace storage {

PagedRecordStore::PagedRecordStore(BufferPool* pool) : pool_(pool) {
  ASF_CHECK_MSG(pool != nullptr, "record store needs a buffer pool");
}

std::size_t PagedRecordStore::payload_per_page() const {
  return pool_->page_size() - sizeof(PageId);
}

Result<RecordRef> PagedRecordStore::Write(
    const std::vector<std::uint8_t>& data) {
  RecordRef ref;
  ref.bytes = static_cast<std::uint32_t>(data.size());
  if (data.empty()) {
    // Zero-length records still need a head page so valid() can mean
    // "this slot was spilled" without a separate flag.
    ASF_ASSIGN_OR_RETURN(std::uint8_t * head, pool_->PinNew(&ref.head));
    std::memcpy(head, &kNoPage, sizeof(PageId));
    pool_->Unpin(ref.head, /*dirty=*/true);
    return ref;
  }
  const std::size_t chunk = payload_per_page();
  std::size_t offset = 0;
  PageId prev = kNoPage;
  std::uint8_t* prev_data = nullptr;
  while (offset < data.size()) {
    PageId id = kNoPage;
    ASF_ASSIGN_OR_RETURN(std::uint8_t * page, pool_->PinNew(&id));
    const std::size_t n = std::min(chunk, data.size() - offset);
    std::memcpy(page + sizeof(PageId), data.data() + offset, n);
    std::memcpy(page, &kNoPage, sizeof(PageId));
    if (prev == kNoPage) {
      ref.head = id;
    } else {
      // Link the previous page to this one, then release it — only two
      // pages are ever pinned at once, so a two-frame pool suffices for
      // writing (and one frame for reading).
      std::memcpy(prev_data, &id, sizeof(PageId));
      pool_->Unpin(prev, /*dirty=*/true);
    }
    prev = id;
    prev_data = page;
    offset += n;
  }
  pool_->Unpin(prev, /*dirty=*/true);
  return ref;
}

Result<std::vector<std::uint8_t>> PagedRecordStore::Read(
    const RecordRef& ref) {
  ASF_CHECK_MSG(ref.valid(), "read of an unspilled record");
  std::vector<std::uint8_t> out(ref.bytes);
  const std::size_t chunk = payload_per_page();
  std::size_t offset = 0;
  PageId id = ref.head;
  while (id != kNoPage) {
    ASF_ASSIGN_OR_RETURN(std::uint8_t * page, pool_->Pin(id));
    PageId next = kNoPage;
    std::memcpy(&next, page, sizeof(PageId));
    const std::size_t n = std::min(chunk, out.size() - offset);
    // A zero-length record has an empty `out` whose data() may be null,
    // and memcpy's pointers must be valid even for a zero-byte copy.
    if (n > 0) std::memcpy(out.data() + offset, page + sizeof(PageId), n);
    pool_->Unpin(id, /*dirty=*/false);
    offset += n;
    id = next;
    if (offset >= out.size()) break;  // zero-length records: head only
  }
  ASF_CHECK_MSG(offset == out.size(), "spilled record chain truncated");
  return out;
}

Status PagedRecordStore::Free(const RecordRef& ref) {
  ASF_CHECK_MSG(ref.valid(), "free of an unspilled record");
  PageId id = ref.head;
  while (id != kNoPage) {
    ASF_ASSIGN_OR_RETURN(std::uint8_t * page, pool_->Pin(id));
    PageId next = kNoPage;
    std::memcpy(&next, page, sizeof(PageId));
    pool_->Unpin(id, /*dirty=*/false);
    pool_->Discard(id);
    id = next;
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace asf
