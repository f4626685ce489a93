// Bump arena + std-compatible allocator for per-session scratch.
//
// The query engines keep node-sized scratch arrays (label matrices, parent
// trees, bucket windows) alive across queries; what varies per query is only
// which slots are *logically* live, and the EpochArray mechanism already
// clears those in O(touched). What remained was the allocation story: a
// freshly constructed engine faults dozens (for the bucket queue: thousands)
// of small heap blocks before its first query. An Arena backs all of a
// workspace's containers with a few large chained blocks, so constructing a
// per-thread engine touches one allocation path and repeated queries reuse
// the same contiguous memory.
//
// Small allocations are *monotone*: allocate() only bumps, deallocate() is
// a no-op, and a small container that regrows leaks its old storage inside
// the arena until reset() — acceptable because those containers grow to a
// high-water mark and then stay. Large allocations (kDedicatedBytes and up:
// the SPCS label matrices, whose width follows |conn(S)|) get a block of
// their own, and deallocate() frees it. A regrown label matrix therefore
// gives its old storage back; with a monotone arena a p=4 profile session
// warmed in ascending source width held 155.6 MiB of scratch, six times
// its 26 MiB of high-water label matrices (washington-like). Bump blocks
// double only up to kDedicatedBytes, so a single large request does not
// inflate the blocks after it. reset() rewinds every bump block (an epoch
// reset of the memory itself), frees the dedicated blocks, and is only
// meant for recycling a whole session, never between queries of a live
// session; the per-query "clear" stays with the epoch arrays.
//
// Arenas are single-threaded by design: one arena per QueryWorkspace, one
// workspace per thread (docs/architecture.md, "Threading rules").
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace pconn {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 16;
  /// Blocks at least this large get the transparent-hugepage treatment
  /// when the hint is enabled: 2 MiB-aligned storage plus
  /// madvise(MADV_HUGEPAGE). 2 MiB is the x86-64 huge page size.
  static constexpr std::size_t kHugeBlockBytes = std::size_t{2} << 20;
  /// Allocations at least this large get a block of their own, which
  /// deallocate() frees (header note).
  static constexpr std::size_t kDedicatedBytes = std::size_t{1} << 20;

  explicit Arena(std::size_t first_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(first_block_bytes),
        hugepages_(default_hugepages()) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Opt into (or out of) the hugepage hint for blocks allocated from now
  /// on; existing blocks are left as they are. The process-wide default is
  /// off unless PCONN_HUGEPAGES is set (first step of the NUMA/THP roadmap
  /// item). On non-Linux builds the hint is accepted and ignored.
  void set_hugepage_hint(bool on) { hugepages_ = on; }
  bool hugepage_hint() const { return hugepages_; }

  static bool default_hugepages() {
    static const bool on = std::getenv("PCONN_HUGEPAGES") != nullptr;
    return on;
  }

  /// Pins blocks allocated from now on to `node` (the NUMA half of the
  /// ROADMAP NUMA/THP item; the THP half is set_hugepage_hint above).
  /// Two mechanisms, both best-effort:
  ///   * mbind(MPOL_PREFERRED) on the block's whole-page interior, so the
  ///     kernel places its pages on the worker's node even when a block is
  ///     allocated from the master thread (engine construction);
  ///   * an immediate first-touch pass (one write per page), so the pages
  ///     are faulted in under that policy right away instead of wherever
  ///     the first query thread happens to run.
  /// -1 (the default) disables both. PCONN_NUMA=0/off is the process-wide
  /// escape hatch; bytes accounting is unaffected either way. Non-Linux
  /// builds accept and ignore the node.
  void set_numa_node(int node) { numa_node_ = numa_env_enabled() ? node : -1; }
  int numa_node() const { return numa_node_; }

  /// The NUMA node the calling thread currently runs on; -1 when the
  /// platform cannot say (non-Linux, kernel without getcpu).
  static int current_numa_node() {
#if defined(__linux__) && defined(__NR_getcpu)
    unsigned cpu = 0, node = 0;
    if (syscall(__NR_getcpu, &cpu, &node, nullptr) == 0) {
      return static_cast<int>(node);
    }
#endif
    return -1;
  }

  /// PCONN_NUMA=0 (or "off") disables pinning process-wide.
  static bool numa_env_enabled() {
    static const bool on = [] {
      const char* v = std::getenv("PCONN_NUMA");
      if (v == nullptr) return true;
      const std::string_view s(v);
      return !(s == "0" || s == "off" || s == "OFF");
    }();
    return on;
  }

  /// Allocates `bytes` aligned to `align` (a power of two): a dedicated
  /// block from kDedicatedBytes up, else a bump in the current block.
  void* allocate(std::size_t bytes, std::size_t align) {
    assert((align & (align - 1)) == 0);
    if (bytes >= kDedicatedBytes) return allocate_dedicated(bytes);
    bytes_used_ += bytes;
    ++allocation_count_;
    if (!blocks_.empty()) {
      Block& b = blocks_[cur_];
      const std::size_t used = aligned(b.used, align);
      if (used + bytes <= b.size) {
        b.used = used + bytes;
        return b.data.get() + used;
      }
      // Reset-recycled blocks after cur_ may already be large enough.
      for (std::size_t i = cur_ + 1; i < blocks_.size(); ++i) {
        if (bytes <= blocks_[i].size) {
          cur_ = i;
          blocks_[i].used = bytes;
          return blocks_[i].data.get();
        }
      }
    }
    add_block(bytes);
    blocks_.back().used = bytes;
    cur_ = blocks_.size() - 1;
    return blocks_.back().data.get();
  }

  /// Frees the dedicated block of an allocation of `bytes` >=
  /// kDedicatedBytes at `p`; smaller allocations stay in their bump block
  /// until reset(). A pointer the arena no longer holds (reset() already
  /// freed it) is ignored.
  void deallocate(void* p, std::size_t bytes) noexcept {
    if (bytes < kDedicatedBytes) return;
    for (Block& b : dedicated_) {
      if (b.data.get() != p) continue;
      bytes_reserved_ -= b.size;
      bytes_used_ -= bytes;
      std::swap(b, dedicated_.back());
      dedicated_.pop_back();
      return;
    }
  }

  /// Rewinds every bump block and frees the dedicated ones; all memory
  /// handed out so far becomes invalid. Session recycling only — live
  /// containers must be destroyed or re-assigned first.
  void reset() {
    for (Block& b : blocks_) b.used = 0;
    for (const Block& b : dedicated_) bytes_reserved_ -= b.size;
    dedicated_.clear();
    cur_ = 0;
    bytes_used_ = 0;
  }

  /// Bytes currently handed out (regrown small containers count both their
  /// old and new storage until reset; freed dedicated blocks count no more).
  std::size_t bytes_used() const { return bytes_used_; }
  /// Bytes held in blocks (the arena's true footprint).
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  std::size_t block_count() const { return blocks_.size() + dedicated_.size(); }
  std::size_t allocation_count() const { return allocation_count_; }

 private:
  /// Frees block storage with the alignment it was allocated with (huge
  /// blocks use over-aligned operator new, which must be paired with the
  /// matching aligned delete).
  struct BlockDeleter {
    std::size_t align = 0;  // 0: plain new[]
    void operator()(std::byte* p) const {
      if (align == 0) {
        ::operator delete[](p);
      } else {
        ::operator delete[](p, std::align_val_t{align});
      }
    }
  };

  struct Block {
    std::unique_ptr<std::byte[], BlockDeleter> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t aligned(std::size_t offset, std::size_t align) {
    return (offset + align - 1) & ~(align - 1);
  }

  /// mbind + first-touch of a freshly allocated block (see set_numa_node).
  /// Small blocks are left alone: they amortize nothing and the syscall
  /// would dominate. All failures are silently ignored — a block that
  /// stays where the allocator put it is merely slower, never wrong.
  void pin_block(std::byte* p, std::size_t size) {
    if (numa_node_ < 0 || size < kDefaultBlockBytes) return;
#if defined(__linux__) && defined(__NR_mbind)
    constexpr std::size_t kPage = 4096;
    constexpr int kMpolPreferred = 1;
    const auto lo = (reinterpret_cast<std::uintptr_t>(p) + kPage - 1) &
                    ~(kPage - 1);
    const auto hi = (reinterpret_cast<std::uintptr_t>(p) + size) & ~(kPage - 1);
    if (hi > lo) {
      unsigned long mask = 1ul << numa_node_;
      syscall(__NR_mbind, lo, hi - lo, kMpolPreferred, &mask,
              sizeof(mask) * 8, 0);
    }
#endif
    // First touch under the (possibly just-installed) policy: one write per
    // page faults the whole block onto the chosen node now, on this thread.
    for (std::size_t off = 0; off < size; off += 4096) p[off] = std::byte{0};
  }

  // The large-allocation and block paths are rare; kept out of line so
  // that containers' growth paths, which GCC inlines into the engines' hot
  // loops, do not use up the inliner's budget there.
  [[gnu::noinline]] void* allocate_dedicated(std::size_t bytes) {
    dedicated_.push_back(new_block(bytes));
    bytes_used_ += bytes;
    ++allocation_count_;
    return dedicated_.back().data.get();
  }

  [[gnu::noinline]] void add_block(std::size_t min_bytes) {
    // Bump blocks double up to kDedicatedBytes, the largest request they
    // serve; a request above the current block size gets an exact block
    // without inflating the ones after it.
    const std::size_t size = std::max(min_bytes, next_block_bytes_);
    if (next_block_bytes_ < kDedicatedBytes) next_block_bytes_ *= 2;
    blocks_.push_back(new_block(size));
  }

  /// A fresh block of at least `size` bytes with the hugepage hint and NUMA
  /// pinning applied, counted in bytes_reserved().
  Block new_block(std::size_t size) {
    std::byte* p = nullptr;
    BlockDeleter deleter{};
    if (hugepages_ && size >= kHugeBlockBytes) {
      // 2 MiB-aligned storage rounded to whole huge pages, then hint the
      // kernel. The hint is best-effort: madvise failure (THP disabled,
      // old kernel) leaves a perfectly valid ordinary mapping.
      size = aligned(size, kHugeBlockBytes);
      p = static_cast<std::byte*>(::operator new[](
          size, std::align_val_t{kHugeBlockBytes}));
      deleter.align = kHugeBlockBytes;
#if defined(__linux__)
      madvise(p, size, MADV_HUGEPAGE);
#endif
    } else {
      p = static_cast<std::byte*>(::operator new[](size));
    }
    pin_block(p, size);
    bytes_reserved_ += size;
    return Block{std::unique_ptr<std::byte[], BlockDeleter>(p, deleter), size,
                 0};
  }

  std::vector<Block> blocks_;     // bump blocks
  std::vector<Block> dedicated_;  // one per large allocation
  std::size_t cur_ = 0;  // block currently bumped into
  std::size_t next_block_bytes_;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t allocation_count_ = 0;
  bool hugepages_ = false;
  int numa_node_ = -1;  // -1: pinning off (see set_numa_node)
};

/// std-compatible allocator over an Arena. Unbound (nullptr arena — the
/// default) it degrades to plain new/delete, so every container stays usable
/// without a workspace; bound, memory comes from the arena's blocks and
/// deallocation frees only dedicated (large) blocks. Containers sharing one
/// arena compare equal and can swap/move storage freely.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& o) : arena_(o.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    release(arena_, p, n * sizeof(T));
  }

  ArenaAllocator select_on_container_copy_construction() const {
    return *this;
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& o) const {
    return arena_ == o.arena();
  }

 private:
  // One out-of-line call, as small as the plain delete it replaces where
  // containers inline their growth paths into engine loops.
  [[gnu::noinline]] static void release(Arena* arena, void* p,
                                        std::size_t bytes) noexcept {
    if (arena) {
      arena->deallocate(p, bytes);
    } else {
      ::operator delete(p);
    }
  }

  Arena* arena_ = nullptr;
};

/// The allocator handle engines pass around; rebound per element type.
using ScratchAlloc = ArenaAllocator<std::byte>;

}  // namespace pconn
