#ifndef ASF_QUERY_ANSWER_SET_H_
#define ASF_QUERY_ANSWER_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/check.h"
#include "common/types.h"

/// \file
/// The answer A(t) of an entity-based query: a set of stream identifiers
/// (paper §3.2: entity-based queries "return names or identifiers of
/// objects as answers").
///
/// Stream ids are dense (0 .. n−1, n ≤ a few thousand) and answers hold a
/// sizeable fraction of them, so the set is a bitset over ids: 64-bit
/// words plus a member count. Insert/Erase/Contains are one word op and
/// allocate nothing once the words cover the largest id; iteration walks
/// the words and yields ids in ascending order. It costs n/8 bytes per
/// set — a sixty-fourth of the 8 bytes per stream (the cached value) the
/// ServerContext already holds.

namespace asf {

/// A set of stream ids, iterated in ascending id order.
class AnswerSet {
 public:
  /// Forward iterator over the members, ascending.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = StreamId;
    using difference_type = std::ptrdiff_t;
    using pointer = const StreamId*;
    using reference = StreamId;

    Iterator() = default;

    StreamId operator*() const {
      return static_cast<StreamId>(
          w_ * 64 + static_cast<std::size_t>(__builtin_ctzll(bits_)));
    }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      Settle();
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const {
      return w_ == other.w_ && bits_ == other.bits_;
    }

   private:
    friend class AnswerSet;

    Iterator(const std::uint64_t* words, std::size_t nwords, std::size_t w)
        : words_(words), nwords_(nwords), w_(w),
          bits_(w < nwords ? words[w] : 0) {
      Settle();
    }

    /// Advances to the next non-empty word (or the end position).
    void Settle() {
      while (bits_ == 0 && w_ < nwords_) {
        ++w_;
        bits_ = w_ < nwords_ ? words_[w_] : 0;
      }
    }

    const std::uint64_t* words_ = nullptr;
    std::size_t nwords_ = 0;
    std::size_t w_ = 0;
    std::uint64_t bits_ = 0;
  };

  AnswerSet() = default;

  /// Adds `id`; true iff it was absent.
  bool Insert(StreamId id) {
    ASF_DCHECK(id != kInvalidStream);
    const std::size_t w = id / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t mask = Mask(id);
    if ((words_[w] & mask) != 0) return false;
    words_[w] |= mask;
    ++size_;
    return true;
  }

  /// Removes `id`; true iff it was present.
  bool Erase(StreamId id) {
    const std::size_t w = id / 64;
    if (w >= words_.size() || (words_[w] & Mask(id)) == 0) return false;
    words_[w] &= ~Mask(id);
    --size_;
    return true;
  }

  bool Contains(StreamId id) const {
    const std::size_t w = id / 64;
    return w < words_.size() && (words_[w] & Mask(id)) != 0;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Empties the set; the words stay allocated for the next fill.
  void Clear() {
    std::fill(words_.begin(), words_.end(), 0);
    size_ = 0;
  }

  Iterator begin() const { return {words_.data(), words_.size(), 0}; }
  Iterator end() const {
    return {words_.data(), words_.size(), words_.size()};
  }

  /// The ids in ascending order (for deterministic output and tests).
  std::vector<StreamId> ToSortedVector() const {
    std::vector<StreamId> out;
    out.reserve(size_);
    for (const StreamId id : *this) out.push_back(id);
    return out;
  }

  /// Equal members, whatever the history. Sets grown to different widths
  /// compare their common words: with equal sizes, equal common words
  /// leave the longer set's extra words empty.
  bool operator==(const AnswerSet& other) const {
    if (size_ != other.size_) return false;
    const std::size_t common = std::min(words_.size(), other.words_.size());
    return std::equal(words_.begin(), words_.begin() + common,
                      other.words_.begin());
  }

 private:
  static std::uint64_t Mask(StreamId id) {
    return std::uint64_t{1} << (id % 64);
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace asf

#endif  // ASF_QUERY_ANSWER_SET_H_
