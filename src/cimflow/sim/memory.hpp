// Program-image residency for the simulator (ROADMAP "simulator memory").
//
// A functional simulation used to copy the whole program global image
// (weights, LUTs, staging area — hundreds of MB for VGG19) into every
// Simulator::Impl, so an N-way concurrent sweep kept N full copies resident.
// GlobalImage replaces the copy with a borrow: the program's image is an
// immutable base shared by every simulator running that program, and each
// simulator materializes only the 64 KB pages it actually writes
// (copy-on-write). Weight pages are never written, so sweep memory grows with
// the activation/staging footprint, not with the weight image times the
// simulator count.
//
// Concurrency contract (what the parallel event scheduler relies on):
//   * the base is never written through this class;
//   * concurrent reads are always safe;
//   * concurrent writes are safe when they target distinct bytes — the page
//     table publishes freshly materialized pages atomically, so two cores
//     writing disjoint addresses of the same page do not race;
//   * writes racing reads of the SAME byte are a program bug (compiled
//     programs order cross-core global traffic with stage barriers), exactly
//     as they were under the serial kernel.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace cimflow::sim {

/// Cache-line / vector-width alignment for the simulator's bulk buffers: the
/// SIMD kernel tiers tolerate unaligned operands, but 64-byte-aligned bases
/// make aligned accesses the dominant case (and keep hot rows from splitting
/// cache lines).
inline constexpr std::size_t kBufferAlignBytes = 64;

/// Zero-initialized bulk storage for per-core architectural state (local
/// scratchpads, CIM weight arrays). `reset_zeroed` hands back fresh
/// calloc-backed memory instead of memset-ing a vector: a large allocation
/// comes straight from a fresh anonymous mapping, which the kernel already
/// guarantees zero — so resetting a 64-core chip costs O(pages actually
/// touched by the program), not O(total capacity). On a sweep of short
/// simulations the old eager zeroing of ~64 MB of scratchpads per run WAS
/// the dominant cost. data() is 64-byte aligned: calloc keeps the zero-page
/// trick (aligned_alloc+memset would reintroduce the eager-zeroing cost), so
/// alignment comes from over-allocating kBufferAlignBytes-1 slack and
/// rounding the base pointer up.
class ZeroedBuffer {
 public:
  /// Replaces the contents with `n` zero bytes (previous storage released).
  /// Throws std::bad_alloc on failure, matching the vector it replaced.
  void reset_zeroed(std::size_t n) {
    raw_.reset(n == 0 ? nullptr
                      : static_cast<std::uint8_t*>(
                            std::calloc(n + kBufferAlignBytes - 1, 1)));
    if (n != 0 && raw_ == nullptr) throw std::bad_alloc();
    data_ = align_up(raw_.get());
    size_ = n;
  }
  void clear() {
    raw_.reset();
    data_ = nullptr;
    size_ = 0;
  }
  std::uint8_t* data() noexcept { return data_; }
  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::uint8_t& operator[](std::size_t i) noexcept { return data_[i]; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  static std::uint8_t* align_up(std::uint8_t* p) noexcept {
    if (p == nullptr) return nullptr;
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    return p + ((kBufferAlignBytes - addr % kBufferAlignBytes) % kBufferAlignBytes);
  }
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::uint8_t[], FreeDeleter> raw_;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Grow-only 64-byte-aligned scratch for the hot-path kernels (the MVM
/// accumulator row, pooling channel rows, gathered operand spans).
/// `ensure` returns a pointer with capacity for at least `n` elements;
/// contents are unspecified after growth — every caller fully initializes
/// the elements it uses. Replaces the std::vector scratch members so the
/// vector tiers start from aligned bases without a per-call copy.
template <typename T>
class AlignedBuffer {
 public:
  T* ensure(std::size_t n) {
    if (n > capacity_) {
      // Grow-only with the vector's usual doubling so ensure() stays O(1)
      // amortized across the monotone ramp of kernel widths in a program.
      std::size_t want = capacity_ == 0 ? std::size_t{64} : capacity_ * 2;
      if (want < n) want = n;
      const std::size_t bytes =
          (want * sizeof(T) + kBufferAlignBytes - 1) / kBufferAlignBytes *
          kBufferAlignBytes;
      data_.reset(static_cast<T*>(std::aligned_alloc(kBufferAlignBytes, bytes)));
      if (data_ == nullptr) throw std::bad_alloc();
      capacity_ = want;
    }
    return data_.get();
  }
  void clear() {
    data_.reset();
    capacity_ = 0;
  }
  T* data() noexcept { return data_.get(); }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct FreeDeleter {
    void operator()(T* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<T, FreeDeleter> data_;
  std::size_t capacity_ = 0;
};

class GlobalImage {
 public:
  /// Pages are the copy-on-write granule: big enough that page-table walks
  /// are cheap, small enough that a written staging region does not drag
  /// whole weight megabytes into the overlay.
  static constexpr std::int64_t kPageBytes = std::int64_t{1} << 16;

  GlobalImage() = default;
  GlobalImage(const GlobalImage&) = delete;
  GlobalImage& operator=(const GlobalImage&) = delete;

  /// Rebinds to `base` (borrowed, not copied) and drops any overlay from a
  /// previous run. `owner`, when set, keeps the storage behind `base` alive
  /// for the lifetime of this binding (e.g. the DSE engine's shared compiled
  /// program); when null the caller guarantees `base` outlives the binding.
  /// Not thread-safe: called between runs, never during one.
  void bind(const std::vector<std::uint8_t>* base, std::shared_ptr<const void> owner);

  /// Logical image size: the base plus any extension from ensure_size().
  std::int64_t size() const noexcept { return size_; }

  /// Grows the logical size (zero-filled beyond the base) — input staging for
  /// batches whose images extend past the compiled image. Setup-time only,
  /// not thread-safe against concurrent access.
  void ensure_size(std::int64_t bytes);

  std::uint8_t load_u8(std::int64_t addr) const;
  void store_u8(std::int64_t addr, std::uint8_t value);
  void read_bytes(std::int64_t addr, std::int64_t len, std::uint8_t* out) const;
  void write_bytes(std::int64_t addr, const std::uint8_t* src, std::int64_t len);

  // --- span pinning (the simulator's pointer-resolved kernels) --------------
  //
  // Resolves [addr, addr+len) to one contiguous pointer so kernels run over
  // raw memory. Returns nullptr when no contiguous view exists — the caller
  // then gathers the span into its own scratch with read_bytes (and writes a
  // gathered destination back with write_bytes), which handles every layout.
  // The simulator does this in one place (CoreModel::pin_dst/pin_src). `len`
  // must be > 0 and in range (callers bounds-check first, as for
  // read_bytes).
  //
  // A read span resolves when the range lies in a single materialized page,
  // or entirely in the base with no overlapping page materialized (the same
  // view read_bytes would copy from). A write span resolves only within a
  // single page — page_for_write materializes it — because two overlay pages
  // are never contiguous. Thread-safety matches the byte path: the returned
  // pointer is into the page table / base that concurrent cores also use,
  // under the same disjoint-bytes contract.
  const std::uint8_t* span_for_read(std::int64_t addr, std::int64_t len) const;
  std::uint8_t* span_for_write(std::int64_t addr, std::int64_t len);

  /// Residency accounting for tests and bench notes.
  std::int64_t base_bytes() const noexcept { return base_ == nullptr ? 0 : static_cast<std::int64_t>(base_->size()); }
  std::int64_t overlay_bytes() const;

 private:
  const std::uint8_t* page_for_read(std::int64_t page) const;
  std::uint8_t* page_for_write(std::int64_t page);

  const std::vector<std::uint8_t>* base_ = nullptr;
  std::shared_ptr<const void> owner_;
  std::int64_t size_ = 0;

  /// Published page pointers; null = read through the base. Materialization
  /// is serialized by `mu_`; lookups are lock-free acquire loads.
  std::vector<std::atomic<std::uint8_t*>> pages_;
  std::vector<std::unique_ptr<std::uint8_t[]>> owned_pages_;
  mutable std::mutex mu_;
};

}  // namespace cimflow::sim
