// alloc_count.cpp — a counting replacement of the global operator new.
//
// The copy count of a message path is not observable from outside the
// library, but every copy into a fresh buffer is an allocation. The traced
// run therefore counts allocations (and their bytes) made anywhere in the
// process while the traced phase runs. Counting is gated so that untraced
// runs pay a single relaxed load per allocation.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.h"

namespace {

// Per-thread counters, so that counting adds no cache-line traffic between
// threads: each thread claims a slot on its first counted allocation and
// is its only writer. Slots are never released (a thread's counts outlive
// it); threads beyond the last slot share it.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr std::size_t kSlots = 512;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
std::atomic<bool> g_on{false};
thread_local Slot* t_slot = nullptr;

void note(std::size_t n) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  if (t_slot == nullptr) {
    const std::size_t i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[std::min(i, kSlots - 1)];
  }
  t_slot->count.fetch_add(1, std::memory_order_relaxed);
  t_slot->bytes.fetch_add(n, std::memory_order_relaxed);
}

void* alloc(std::size_t n) {
  note(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* alloc_aligned(std::size_t n, std::align_val_t al) {
  note(n);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t size = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, size == 0 ? a : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perf {

void set_alloc_counting(bool on) {
  g_on.store(on, std::memory_order_relaxed);
}

AllocTotals alloc_totals() {
  AllocTotals t;
  for (const Slot& s : g_slots) {
    t.count += s.count.load(std::memory_order_relaxed);
    t.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace perf

void* operator new(std::size_t n) { return alloc(n); }
void* operator new[](std::size_t n) { return alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return alloc_aligned(n, al);
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
