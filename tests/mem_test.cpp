#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "mem/memory.hpp"

namespace zolcsim::mem {
namespace {

TEST(Memory, UnwrittenReadsAsZero) {
  Memory m;
  EXPECT_EQ(m.read8(0), 0);
  EXPECT_EQ(m.read16(0x8000), 0);
  EXPECT_EQ(m.read32(0xFFFF'FFFCu), 0u);
  EXPECT_EQ(m.resident_pages(), 0u);  // reads do not allocate
}

TEST(Memory, ByteRoundTrip) {
  Memory m;
  m.write8(5, 0xAB);
  EXPECT_EQ(m.read8(5), 0xAB);
  EXPECT_EQ(m.read8(4), 0);
  EXPECT_EQ(m.read8(6), 0);
}

TEST(Memory, LittleEndianComposition) {
  Memory m;
  m.write32(0x100, 0x0403'0201u);
  EXPECT_EQ(m.read8(0x100), 0x01);
  EXPECT_EQ(m.read8(0x101), 0x02);
  EXPECT_EQ(m.read8(0x102), 0x03);
  EXPECT_EQ(m.read8(0x103), 0x04);
  EXPECT_EQ(m.read16(0x100), 0x0201);
  EXPECT_EQ(m.read16(0x102), 0x0403);
}

TEST(Memory, HalfwordRoundTrip) {
  Memory m;
  m.write16(0x200, 0xBEEF);
  EXPECT_EQ(m.read16(0x200), 0xBEEF);
  EXPECT_EQ(m.read8(0x200), 0xEF);
  EXPECT_EQ(m.read8(0x201), 0xBE);
}

TEST(Memory, MisalignedAccessesFault) {
  Memory m;
  EXPECT_THROW((void)m.read16(1), MemoryFault);
  EXPECT_THROW((void)m.read32(2), MemoryFault);
  EXPECT_THROW(m.write16(3, 0), MemoryFault);
  EXPECT_THROW(m.write32(0x101, 0), MemoryFault);
  EXPECT_THROW((void)m.fetch32(0x1002), MemoryFault);
}

TEST(Memory, CrossPageBytes) {
  Memory m;
  const std::uint32_t boundary = Memory::kPageSize;
  m.write8(boundary - 1, 0x11);
  m.write8(boundary, 0x22);
  EXPECT_EQ(m.read8(boundary - 1), 0x11);
  EXPECT_EQ(m.read8(boundary), 0x22);
  EXPECT_EQ(m.resident_pages(), 2u);
}

TEST(Memory, SparseFootprint) {
  Memory m;
  m.write32(0x0000'0000, 1);
  m.write32(0x8000'0000, 2);
  m.write32(0xFFFF'F000, 3);
  EXPECT_EQ(m.resident_pages(), 3u);
  EXPECT_EQ(m.read32(0x8000'0000), 2u);
}

TEST(Memory, LoadWordsAndReadBack) {
  Memory m;
  const std::array<std::uint32_t, 3> words = {10, 20, 30};
  m.load_words(0x1000, words);
  const auto back = m.read_words(0x1000, 3);
  EXPECT_EQ(back, (std::vector<std::uint32_t>{10, 20, 30}));
}

TEST(Memory, LoadBytes) {
  Memory m;
  const std::array<std::uint8_t, 5> bytes = {1, 2, 3, 4, 5};
  m.load_bytes(Memory::kPageSize - 2, bytes);  // crosses a page boundary
  EXPECT_EQ(m.read8(Memory::kPageSize - 2), 1);
  EXPECT_EQ(m.read8(Memory::kPageSize + 2), 5);
}

TEST(Memory, StatsCountAccesses) {
  Memory m;
  m.write32(0, 1);
  m.write8(4, 2);
  (void)m.read16(0);
  (void)m.read32(0);
  EXPECT_EQ(m.stats().writes, 2u);
  EXPECT_EQ(m.stats().reads, 2u);
  EXPECT_EQ(m.stats().bytes_written, 5u);
  EXPECT_EQ(m.stats().bytes_read, 6u);
  m.reset_stats();
  EXPECT_EQ(m.stats().reads, 0u);
}

TEST(Memory, FetchDoesNotCountInDataStats) {
  Memory m;
  m.write32(0x100, 42);
  m.reset_stats();
  EXPECT_EQ(m.fetch32(0x100), 42u);
  EXPECT_EQ(m.stats().reads, 0u);
}

TEST(Memory, OverwriteInPlace) {
  Memory m;
  m.write32(0x40, 0xAAAA'AAAA);
  m.write32(0x40, 0x5555'5555);
  EXPECT_EQ(m.read32(0x40), 0x5555'5555u);
}

// ---- copy-on-write baseline ----

/// Writes the deterministic test image (several pages) into `m`.
void write_image(Memory& m) {
  for (std::uint32_t addr = 0; addr < 4 * Memory::kPageSize; addr += 4) {
    m.write32(addr, addr * 2654435761u + 1);
  }
  m.reset_stats();
}

/// A small deterministic baseline image spanning several pages.
std::shared_ptr<const Memory> make_baseline() {
  auto image = std::make_shared<Memory>();
  write_image(*image);
  return image;
}

TEST(MemoryCow, ReadsFallThroughToBaseline) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  EXPECT_TRUE(view.has_baseline());
  EXPECT_EQ(view.read32(0x40), baseline->read32(0x40));
  EXPECT_EQ(view.fetch32(0x1000), baseline->fetch32(0x1000));
  // Beyond the baseline image: still zero.
  EXPECT_EQ(view.read32(8 * Memory::kPageSize), 0u);
  EXPECT_EQ(view.dirty_pages(), 0u);  // reads never privatize
}

TEST(MemoryCow, WritePrivatizesOnePage) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  const std::uint32_t before = view.read32(0x104);
  view.write32(0x100, 0xDEAD'BEEF);
  EXPECT_EQ(view.dirty_pages(), 1u);
  EXPECT_EQ(view.read32(0x100), 0xDEAD'BEEFu);
  // The rest of the privatized page was copied, not zeroed.
  EXPECT_EQ(view.read32(0x104), before);
  // The shared baseline is untouched.
  EXPECT_NE(baseline->read32(0x100), 0xDEAD'BEEFu);
}

TEST(MemoryCow, ResetToBaselineDropsDirtyPages) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  view.write32(0x100, 1);
  view.write32(Memory::kPageSize + 8, 2);
  view.write32(9 * Memory::kPageSize, 3);  // a page the baseline lacks
  EXPECT_EQ(view.dirty_pages(), 3u);
  view.reset_to_baseline();
  EXPECT_EQ(view.dirty_pages(), 0u);
  EXPECT_EQ(view.read32(0x100), baseline->read32(0x100));
  EXPECT_EQ(view.read32(9 * Memory::kPageSize), 0u);
  EXPECT_TRUE(view == *baseline);
}

TEST(MemoryCow, PrivatizesOncePerPageAndResetIsIdempotent) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  view.write32(0x10, 1);  // privatizes page 0
  EXPECT_EQ(view.dirty_pages(), 1u);
  view.write32(0x20, 2);  // same page, already private
  EXPECT_EQ(view.dirty_pages(), 1u);
  EXPECT_EQ(view.read32(0x10), 1u);
  EXPECT_EQ(view.read32(0x20), 2u);
  view.reset_to_baseline();
  EXPECT_EQ(view.dirty_pages(), 0u);
  view.reset_to_baseline();  // nothing dirty
  EXPECT_EQ(view.dirty_pages(), 0u);
  EXPECT_TRUE(view == *baseline);
}

TEST(MemoryCow, MisalignedFaultDoesNotPrivatize) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  EXPECT_THROW(view.write32(0x101, 1), MemoryFault);
  EXPECT_THROW(view.write16(0x7, 1), MemoryFault);
  EXPECT_THROW((void)view.read32(0x2), MemoryFault);
  EXPECT_EQ(view.dirty_pages(), 0u);
  EXPECT_TRUE(view == *baseline);
}

TEST(MemoryCow, SetBaselineContracts) {
  const auto baseline = make_baseline();
  Memory chained;
  chained.set_baseline(baseline);
  auto shared_view = std::make_shared<Memory>();
  shared_view->set_baseline(baseline);

  Memory dirty;
  dirty.write8(0, 1);
  EXPECT_THROW(dirty.set_baseline(baseline), ContractViolation);
  Memory view;
  EXPECT_THROW(view.set_baseline(nullptr), ContractViolation);
  // No COW chains: a view cannot serve as another view's baseline.
  EXPECT_THROW(view.set_baseline(shared_view), ContractViolation);
  Memory plain;
  EXPECT_THROW(plain.reset_to_baseline(), ContractViolation);
}

TEST(MemoryCow, EqualityIgnoresResidencyDifferences) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  // A privatized page with unchanged content stays equal to the baseline.
  const std::uint32_t v = view.read32(0x200);
  view.write32(0x200, v);
  EXPECT_EQ(view.dirty_pages(), 1u);
  EXPECT_TRUE(view == *baseline);
  // An all-zero private page equals absent memory on the other side.
  Memory a;
  Memory b;
  a.write32(5 * Memory::kPageSize, 0);
  EXPECT_TRUE(a == b);
  a.write32(5 * Memory::kPageSize, 7);
  EXPECT_FALSE(a == b);
}

/// Randomized write/reset fuzz: a COW view and a plain-copy oracle receive
/// the same writes; the view must stay equal to the oracle, and after
/// reset_to_baseline() it must match the pristine image again.
TEST(MemoryCow, FuzzAgainstPlainCopyOracle) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);

  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int round = 0; round < 8; ++round) {
    Memory oracle;  // plain copy of the image, rebuilt the cold way
    write_image(oracle);
    for (int i = 0; i < 400; ++i) {
      // Cover baseline pages, fresh pages, and the page-boundary seam.
      const std::uint32_t addr =
          static_cast<std::uint32_t>(next() % (6 * Memory::kPageSize)) & ~3u;
      const auto value = static_cast<std::uint32_t>(next());
      view.write32(addr, value);
      oracle.write32(addr, value);
    }
    EXPECT_TRUE(view == oracle) << "round " << round;
    EXPECT_LE(view.dirty_pages(), 6u);
    view.reset_to_baseline();
    EXPECT_TRUE(view == *baseline) << "round " << round;
    EXPECT_EQ(view.dirty_pages(), 0u);
  }
}

// ---- page index ----

TEST(MemoryIndex, FirstAndLastPagesLiveSideBySide) {
  Memory m;
  m.write32(0x0000'0000, 0x1111'1111);
  m.write32(0xFFFF'F000, 0x2222'2222);
  m.write32(0xFFFF'FFFC, 0x3333'3333);
  EXPECT_EQ(m.resident_pages(), 2u);
  EXPECT_EQ(m.read32(0x0000'0000), 0x1111'1111u);
  EXPECT_EQ(m.read32(0xFFFF'F000), 0x2222'2222u);
  EXPECT_EQ(m.read32(0xFFFF'FFFC), 0x3333'3333u);
  EXPECT_EQ(m.read32(0x0000'1000), 0u);
  EXPECT_EQ(m.read32(0xFFFF'E000), 0u);
}

TEST(MemoryIndex, GrowthKeepsEveryPage) {
  Memory m;
  // Strided page numbers (64 KiB apart, like the kernel data regions) and
  // enough of them to grow the index several times.
  for (std::uint32_t i = 0; i < 200; ++i) {
    m.write32(i * 0x1'0000u + 4 * i, i + 1);
  }
  EXPECT_EQ(m.resident_pages(), 200u);
  EXPECT_GE(m.index_capacity(), 2 * m.resident_pages());
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(m.read32(i * 0x1'0000u + 4 * i), i + 1) << "page " << i;
  }
}

TEST(MemoryIndex, SeededBaselinePagePrivatizesAndResets) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  const std::uint32_t original = view.read32(0x1008);
  EXPECT_EQ(original, baseline->read32(0x1008));
  EXPECT_EQ(view.dirty_pages(), 0u);  // reading through copies nothing

  view.write32(0x1008, ~original);
  EXPECT_EQ(view.dirty_pages(), 1u);
  EXPECT_EQ(view.read32(0x1008), ~original);
  EXPECT_EQ(view.read32(0x100C), baseline->read32(0x100C));
  EXPECT_EQ(baseline->read32(0x1008), original);

  view.reset_to_baseline();
  EXPECT_EQ(view.dirty_pages(), 0u);
  EXPECT_EQ(view.read32(0x1008), original);
  EXPECT_TRUE(view == *baseline);
}

TEST(MemoryIndex, MisalignedAccessFaultsBeforeTouchingAPage) {
  Memory m;
  EXPECT_THROW(m.write32(0x2002, 1), MemoryFault);
  EXPECT_THROW(m.write16(0x3001, 1), MemoryFault);
  EXPECT_THROW((void)m.read32(0x4001), MemoryFault);
  EXPECT_THROW((void)m.read16(0x5003), MemoryFault);
  EXPECT_THROW((void)m.fetch32(0x6002), MemoryFault);
  EXPECT_EQ(m.resident_pages(), 0u);
  EXPECT_EQ(m.index_capacity(), 0u);
  EXPECT_EQ(m.stats().reads, 0u);
  EXPECT_EQ(m.stats().writes, 0u);
}

TEST(MemoryIndex, StatsStayExactThroughAViewAndAReset) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  (void)view.read8(0x10);                    // baseline page
  (void)view.read16(0x2000);                 // baseline page
  (void)view.read32(9 * Memory::kPageSize);  // absent page
  view.write8(0x11, 1);                      // privatizes
  view.write16(0x12, 2);
  view.write32(9 * Memory::kPageSize, 3);  // new page
  (void)view.fetch32(0x20);                // not a data access
  (void)view.read32(0x1000);                 // baseline page
  (void)view.read32(0x14);                   // private page
  view.write32(0x18, 4);
  view.reset_to_baseline();  // statistics are kept
  EXPECT_EQ(view.stats().reads, 5u);
  EXPECT_EQ(view.stats().bytes_read, 15u);
  EXPECT_EQ(view.stats().writes, 4u);
  EXPECT_EQ(view.stats().bytes_written, 11u);
  EXPECT_EQ(baseline->stats().reads, 0u);  // reads through never count there
}

// Serve workers and sweep threads each run on their own view of one shared
// const baseline; reads never write the baseline, so concurrent views are
// race-free (the ThreadSanitizer CI leg runs this test).
TEST(MemoryIndex, ConcurrentViewsReadOneBaseline) {
  const auto baseline = make_baseline();
  constexpr int kThreads = 3;
  std::array<std::uint64_t, kThreads> sums{};
  std::array<bool, kThreads> equal{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&baseline, &sums, &equal, t] {
      Memory view;
      view.set_baseline(baseline);
      std::uint64_t sum = 0;
      for (int round = 0; round < 4; ++round) {
        for (std::uint32_t a = 0; a < 4 * Memory::kPageSize; a += 4) {
          sum += view.read32(a);
        }
        // A private write per round, then back to the shared image.
        view.write32(static_cast<std::uint32_t>(t) * Memory::kPageSize, 7);
        view.reset_to_baseline();
      }
      sums[t] = sum;
      equal[t] = view == *baseline;
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::uint64_t expected = 0;
  for (std::uint32_t a = 0; a < 4 * Memory::kPageSize; a += 4) {
    expected += baseline->fetch32(a);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[t], 4 * expected) << "thread " << t;
    EXPECT_TRUE(equal[t]) << "thread " << t;
  }
}

}  // namespace
}  // namespace zolcsim::mem
