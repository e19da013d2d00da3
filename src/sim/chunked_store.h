// Append-only storage whose elements never move.
//
// Per-flow tables hold one object per flow for the whole run, and
// scheduled events keep references to them, so the objects need stable
// addresses.  One heap object per element (unique_ptr) costs one
// allocation per flow; std::deque allocates a 512-byte block every two
// to four flows, and for the cache-line aligned per-flow types each of
// those is an aligned allocation, which glibc serves slowly.  Here
// elements are constructed in place in chunks of kChunk, so a 10k-flow
// table costs 40 allocations and its elements sit back to back.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace corelite::sim {

template <class T, std::size_t kChunk = 256>
class ChunkedStore {
 public:
  ChunkedStore() = default;
  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;
  // Moving hands over the chunks themselves: element addresses survive.
  ChunkedStore(ChunkedStore&& o) noexcept
      : chunks_{std::move(o.chunks_)}, size_{std::exchange(o.size_, 0)} {}
  ChunkedStore& operator=(ChunkedStore&& o) noexcept {
    if (this != &o) {
      clear();
      chunks_ = std::move(o.chunks_);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~ChunkedStore() { clear(); }

  /// Construct a new last element in place; earlier elements stay put.
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ / kChunk == chunks_.size()) {
      chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    }
    T* p = ::new (static_cast<void*>(raw(size_))) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

 private:
  void clear() {
    while (size_ > 0) std::launder(reinterpret_cast<T*>(raw(--size_)))->~T();
    chunks_.clear();
  }

  struct Chunk {
    alignas(T) unsigned char bytes[kChunk * sizeof(T)];
  };

  unsigned char* raw(std::size_t i) const {
    return chunks_[i / kChunk]->bytes + (i % kChunk) * sizeof(T);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace corelite::sim
