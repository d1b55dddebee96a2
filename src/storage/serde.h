#ifndef ASF_STORAGE_SERDE_H_
#define ASF_STORAGE_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"

/// \file
/// Minimal byte (de)serializer for spilled records. Everything is
/// little-endian host layout via memcpy; doubles round-trip bit-exactly
/// (raw IEEE bytes, no text formatting), which is what makes spilled
/// results byte-identical to in-memory ones. The reader CHECKs on
/// overrun — a spilled record is produced and consumed by the same
/// build, so a short read is a programming error, not bad input.

namespace asf {
namespace storage {

class ByteWriter {
 public:
  /// A number as its raw bytes.
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_arithmetic_v<T>);
    Raw(&v, sizeof(v));
  }
  /// A string as its u32 length, then its bytes.
  void Put(const std::string& s) {
    Put(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  void Raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  /// Reads back what ByteWriter::Put wrote, in the same order.
  template <typename T>
  void Get(T& v) {
    static_assert(std::is_arithmetic_v<T>);
    Raw(&v, sizeof(v));
  }
  void Get(std::string& s) {
    std::uint32_t n = 0;
    Get(n);
    ASF_CHECK_MSG(pos_ + n <= bytes_.size(), "spilled record underrun");
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
  }

  void Raw(void* out, std::size_t n) {
    ASF_CHECK_MSG(pos_ + n <= bytes_.size(), "spilled record underrun");
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  bool Done() const { return pos_ == bytes_.size(); }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace storage
}  // namespace asf

#endif  // ASF_STORAGE_SERDE_H_
