// Process-wide allocation counter for the zero-allocation guard tests.
//
// Replaces every global operator new / operator delete form — plain, array,
// aligned, sized, and the std::nothrow_t variants of each — with counting
// malloc/free wrappers. Replacing only some forms is unsafe: the library
// then pairs a replaced delete with the runtime's own new (std::stable_sort
// takes its temporary buffer from nothrow new, for one), which
// AddressSanitizer reports as alloc-dealloc-mismatch.
//
// Replacement allocation functions may not be inline, so this header
// defines them outright: include it from exactly one translation unit of a
// test binary. Counters are relaxed atomics — pool threads allocate too
// (only before warm-up, which is what the guards verify).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace pconn::test {

inline std::atomic<std::uint64_t> g_allocs{0};

/// Allocations made so far by this process through operator new.
inline std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_aligned_alloc(std::size_t size,
                                   std::align_val_t al) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}

inline void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

inline void* counted_aligned_alloc_or_throw(std::size_t size,
                                            std::align_val_t al) {
  if (void* p = counted_aligned_alloc(size, al)) return p;
  throw std::bad_alloc();
}

}  // namespace pconn::test

void* operator new(std::size_t size) {
  return pconn::test::counted_alloc_or_throw(size);
}
void* operator new[](std::size_t size) {
  return pconn::test::counted_alloc_or_throw(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return pconn::test::counted_aligned_alloc_or_throw(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return pconn::test::counted_aligned_alloc_or_throw(size, al);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return pconn::test::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return pconn::test::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return pconn::test::counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return pconn::test::counted_aligned_alloc(size, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
