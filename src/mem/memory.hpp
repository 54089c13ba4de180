// Sparse byte-addressable memory model. Little-endian, paged allocation so a
// full 4 GiB address space can be simulated with only the touched pages
// resident. Misaligned accesses raise MemoryFault (the modelled core, like
// XiRisc, has no misaligned access support).
//
// A Memory can additionally reference an immutable shared baseline image
// (copy-on-write): reads fall through to the baseline, the first write to a
// page privatizes a local copy, and reset_to_baseline() drops the private
// (dirty) pages in O(dirty) — the warm-start alternative to rebuilding the
// image with Kernel::setup.
//
// Pages are found through an open-addressed page index (DESIGN.md section
// 8.1). A view's index is seeded with the baseline's page pointers, so a
// read through to a baseline page is one probe of the view's own index.
// Reads never write the index: a const baseline is shared by concurrent
// readers. No page pointer is handed out: every consumer, the loop
// summarizer's replay included, accesses memory through read*/write*, so
// access statistics and copy-on-write need no cooperation from callers.
#ifndef ZOLCSIM_MEM_MEMORY_HPP
#define ZOLCSIM_MEM_MEMORY_HPP

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace zolcsim::mem {

/// Thrown on misaligned accesses. Models a precise alignment trap.
class MemoryFault : public std::runtime_error {
 public:
  explicit MemoryFault(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Access counters, reset with Memory::reset_stats().
struct MemoryStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  friend bool operator==(const MemoryStats&, const MemoryStats&) = default;
};

class Memory {
 public:
  static constexpr std::uint32_t kPageBits = 12;  // 4 KiB pages
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;

  Memory() = default;

  // Reads. Unwritten memory reads as zero. Inline: these sit on both
  // simulators' hot paths.
  [[nodiscard]] std::uint8_t read8(std::uint32_t addr) const {
    ++stats_.reads;
    ++stats_.bytes_read;
    const std::uint8_t* page = page_for_read(addr);
    return page ? page[addr & kOffsetMask] : 0;
  }

  [[nodiscard]] std::uint16_t read16(std::uint32_t addr) const {
    if ((addr & 1u) != 0) misaligned(addr, 2);
    ++stats_.reads;
    stats_.bytes_read += 2;
    return static_cast<std::uint16_t>(load(addr, 2));
  }

  [[nodiscard]] std::uint32_t read32(std::uint32_t addr) const {
    if ((addr & 3u) != 0) misaligned(addr, 4);
    ++stats_.reads;
    stats_.bytes_read += 4;
    return load(addr, 4);
  }

  // Writes.
  void write8(std::uint32_t addr, std::uint8_t value) {
    ++stats_.writes;
    ++stats_.bytes_written;
    page_for_write(addr)[addr & kOffsetMask] = value;
  }

  void write16(std::uint32_t addr, std::uint16_t value) {
    if ((addr & 1u) != 0) misaligned(addr, 2);
    ++stats_.writes;
    stats_.bytes_written += 2;
    std::memcpy(page_for_write(addr) + (addr & kOffsetMask), &value, 2);
  }

  void write32(std::uint32_t addr, std::uint32_t value) {
    if ((addr & 3u) != 0) misaligned(addr, 4);
    ++stats_.writes;
    stats_.bytes_written += 4;
    std::memcpy(page_for_write(addr) + (addr & kOffsetMask), &value, 4);
  }

  /// Instruction fetch: same as read32 but not counted in data statistics.
  [[nodiscard]] std::uint32_t fetch32(std::uint32_t addr) const {
    if ((addr & 3u) != 0) misaligned(addr, 4);
    return load(addr, 4);
  }

  /// Copies a block of bytes into memory starting at `addr`.
  void load_bytes(std::uint32_t addr, std::span<const std::uint8_t> bytes);

  /// Copies 32-bit words (little-endian) into memory starting at `addr`.
  void load_words(std::uint32_t addr, std::span<const std::uint32_t> words);

  /// Reads `count` words starting at `addr` into a vector.
  [[nodiscard]] std::vector<std::uint32_t> read_words(std::uint32_t addr,
                                                      std::size_t count) const;

  [[nodiscard]] const MemoryStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = MemoryStats{}; }

  /// Number of locally resident (touched) pages; used by tests to verify
  /// sparseness. Baseline pages are not counted: with a baseline attached
  /// this is the dirty-page count.
  [[nodiscard]] std::size_t resident_pages() const noexcept {
    return private_.size();
  }

  // ---- copy-on-write baseline ----

  /// Attaches `baseline` as the immutable shared image this memory reads
  /// through. Requires: `baseline` non-null, itself baseline-free (no COW
  /// chains), and this memory still empty (no pages written yet). The
  /// baseline must not be mutated while any view references it.
  void set_baseline(std::shared_ptr<const Memory> baseline);

  [[nodiscard]] bool has_baseline() const noexcept {
    return baseline_ != nullptr;
  }
  [[nodiscard]] const std::shared_ptr<const Memory>& baseline() const noexcept {
    return baseline_;
  }

  /// Discards every private page so the memory reads as the baseline image
  /// again, in O(dirty pages). Requires a baseline. Statistics are kept;
  /// reset them separately if the next run should start from zero.
  void reset_to_baseline();

  /// Pages privatized (or newly created) since set_baseline(); without a
  /// baseline, identical to resident_pages().
  [[nodiscard]] std::size_t dirty_pages() const noexcept {
    return private_.size();
  }

  /// Slots in the page index (0 before the first page; a power of two
  /// after). Exposed so tests can drive the index past its growth points.
  [[nodiscard]] std::size_t index_capacity() const noexcept {
    return slots_ ? std::size_t{mask_} + 1 : 0;
  }

  /// Content equality over the union of both memories' effective pages
  /// (private pages shadowing baseline pages); a page resident on one side
  /// only must be all-zero (absent memory reads as zero, so residency
  /// itself is not architectural state). Statistics are not compared. Used
  /// by co-simulation tests to compare full images.
  friend bool operator==(const Memory& a, const Memory& b);

 private:
  using Page = std::unique_ptr<std::uint8_t[]>;

  static constexpr std::uint32_t kOffsetMask = kPageSize - 1;
  /// Slot key of an empty slot; no page number reaches it (they are 20-bit).
  static constexpr std::uint32_t kNoPage = 0xFFFF'FFFFu;
  static constexpr std::uint32_t kMinIndexBits = 4;

  /// One page-index slot. A slot is never removed once keyed: reset only
  /// points it back at the page it shadowed.
  struct Slot {
    std::uint32_t key = kNoPage;  ///< page number (addr >> kPageBits)
    bool owned = false;  ///< `page` is this memory's private copy
    /// The page's bytes, or nullptr when it reads as zero (a private page
    /// dropped by reset_to_baseline() that the baseline lacks). Baseline
    /// pages are borrowed read-only: only owned pages are written through.
    std::uint8_t* page = nullptr;
  };

  /// A page this memory allocated; `shadowed` is the baseline page it
  /// replaced (nullptr if none), restored by reset_to_baseline().
  struct PrivatePage {
    std::uint32_t key = 0;
    Page data;
    std::uint8_t* shadowed = nullptr;
  };

  [[noreturn]] static void misaligned(std::uint32_t addr, unsigned size);

  /// Home slot of `key`: multiplicative hashing, so page numbers that differ
  /// only in their high bits (the 64 KiB-apart data regions) spread out.
  [[nodiscard]] std::uint32_t home(std::uint32_t key) const noexcept {
    return (key * 0x9E37'79B1u) >> shift_;
  }

  /// The slot keyed `key`, or nullptr. Linear probing; the load factor
  /// stays at most 1/2, so a hit is almost always the first probe.
  [[nodiscard]] const Slot* find(std::uint32_t key) const noexcept {
    if (!slots_) return nullptr;
    for (std::uint32_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot;
      if (slot.key == kNoPage) return nullptr;
    }
  }
  [[nodiscard]] Slot* find(std::uint32_t key) noexcept {
    return const_cast<Slot*>(std::as_const(*this).find(key));
  }

  [[nodiscard]] const std::uint8_t* page_for_read(
      std::uint32_t addr) const noexcept {
    const Slot* slot = find(addr >> kPageBits);
    return slot ? slot->page : nullptr;
  }

  [[nodiscard]] std::uint8_t* page_for_write(std::uint32_t addr) {
    Slot* slot = find(addr >> kPageBits);
    if (slot != nullptr && slot->owned) return slot->page;
    return privatize(addr >> kPageBits);
  }

  /// Little-endian load of `size` (2 or 4) aligned bytes.
  [[nodiscard]] std::uint32_t load(std::uint32_t addr,
                                   unsigned size) const noexcept {
    const std::uint8_t* page = page_for_read(addr);
    std::uint32_t value = 0;
    // The host is little-endian (x86/ARM64).
    if (page) std::memcpy(&value, page + (addr & kOffsetMask), size);
    return value;
  }

  /// Gives page `key` a private copy (of the page it shadows, or zeros) and
  /// returns it; keys a new slot first if the index lacks one.
  std::uint8_t* privatize(std::uint32_t key);
  /// Keys a new slot for `key` (absent), growing the index as needed.
  Slot& insert(std::uint32_t key);
  void rehash(std::uint32_t bits);

  std::unique_ptr<Slot[]> slots_;  ///< nullptr until the first page
  std::uint32_t mask_ = 0;         ///< capacity - 1
  std::uint32_t shift_ = 32;       ///< 32 - log2(capacity)
  std::uint32_t used_ = 0;         ///< keyed slots
  std::vector<PrivatePage> private_;
  std::shared_ptr<const Memory> baseline_;
  mutable MemoryStats stats_;
};

}  // namespace zolcsim::mem

#endif  // ZOLCSIM_MEM_MEMORY_HPP
