#ifndef ASF_STORAGE_RECORD_STORE_H_
#define ASF_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

/// \file
/// Variable-length records on top of the BufferPool. A record is a chain
/// of pages, each laid out as [u32 next_page][payload]; RecordRef is the
/// (head page, byte length) handle the engine keeps per spilled query.
/// Write allocates the chain through the pool, Read faults it back one
/// page at a time (so a single-frame pool suffices for any record size),
/// Free returns the chain to the store's free list.

namespace asf {
namespace storage {

/// Handle to one spilled record. Default-constructed = "nothing spilled".
struct RecordRef {
  PageId head = kNoPage;
  std::uint32_t bytes = 0;

  bool valid() const { return head != kNoPage; }
};

class PagedRecordStore {
 public:
  /// `pool` must outlive the record store.
  explicit PagedRecordStore(BufferPool* pool);

  /// Writes `data` as a fresh page chain and returns its handle.
  Result<RecordRef> Write(const std::vector<std::uint8_t>& data);

  /// Reads the full record behind `ref` back into a byte vector.
  Result<std::vector<std::uint8_t>> Read(const RecordRef& ref);

  /// Frees the record's page chain. `ref` is dead afterwards.
  Status Free(const RecordRef& ref);

  /// Payload bytes one page carries (page_size minus the chain link).
  std::size_t payload_per_page() const;

  BufferPool* pool() const { return pool_; }

 private:
  BufferPool* pool_;
};

}  // namespace storage
}  // namespace asf

#endif  // ASF_STORAGE_RECORD_STORE_H_
