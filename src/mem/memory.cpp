#include "mem/memory.hpp"

#include <cstring>
#include <vector>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace zolcsim::mem {

void Memory::misaligned(std::uint32_t addr, unsigned size) {
  throw MemoryFault("misaligned " + std::to_string(size) +
                    "-byte access at " + hex32(addr));
}

void Memory::rehash(std::uint32_t bits) {
  std::unique_ptr<Slot[]> old = std::move(slots_);
  const std::uint32_t old_capacity = old ? mask_ + 1 : 0;
  slots_ = std::make_unique<Slot[]>(std::size_t{1} << bits);
  mask_ = (1u << bits) - 1;
  shift_ = 32 - bits;
  used_ = 0;
  for (std::uint32_t i = 0; i < old_capacity; ++i) {
    if (old[i].key == kNoPage) continue;
    std::uint32_t j = home(old[i].key);
    while (slots_[j].key != kNoPage) j = (j + 1) & mask_;
    slots_[j] = old[i];
    ++used_;
  }
}

Memory::Slot& Memory::insert(std::uint32_t key) {
  if (!slots_) {
    rehash(kMinIndexBits);
  } else if (2 * (used_ + 1) > mask_ + 1) {
    rehash(32 - shift_ + 1);
  }
  std::uint32_t i = home(key);
  while (slots_[i].key != kNoPage) i = (i + 1) & mask_;
  slots_[i].key = key;
  ++used_;
  return slots_[i];
}

std::uint8_t* Memory::privatize(std::uint32_t key) {
  Slot* slot = find(key);
  if (slot == nullptr) slot = &insert(key);
  PrivatePage& priv = private_.emplace_back(
      PrivatePage{key, std::make_unique<std::uint8_t[]>(kPageSize),
                  slot->page});
  if (slot->page != nullptr) {
    std::memcpy(priv.data.get(), slot->page, kPageSize);
  } else {
    std::memset(priv.data.get(), 0, kPageSize);
  }
  slot->page = priv.data.get();
  slot->owned = true;
  return slot->page;
}

void Memory::set_baseline(std::shared_ptr<const Memory> baseline) {
  ZS_EXPECTS(baseline != nullptr);
  ZS_EXPECTS(!baseline->has_baseline());  // no COW chains
  ZS_EXPECTS(used_ == 0);
  // Seed the index with the baseline's page pointers, borrowed read-only:
  // the same capacity keeps every key in the slot it has there.
  if (baseline->slots_) {
    const std::uint32_t capacity = baseline->mask_ + 1;
    slots_ = std::make_unique<Slot[]>(capacity);
    std::memcpy(slots_.get(), baseline->slots_.get(), capacity * sizeof(Slot));
    for (std::uint32_t i = 0; i < capacity; ++i) slots_[i].owned = false;
    mask_ = baseline->mask_;
    shift_ = baseline->shift_;
    used_ = baseline->used_;
  }
  baseline_ = std::move(baseline);
}

void Memory::reset_to_baseline() {
  ZS_EXPECTS(baseline_ != nullptr);
  if (private_.empty()) return;
  for (const PrivatePage& priv : private_) {
    Slot* slot = find(priv.key);
    slot->page = priv.shadowed;
    slot->owned = false;
  }
  private_.clear();
}

bool operator==(const Memory& a, const Memory& b) {
  static const std::uint8_t kZeroPage[Memory::kPageSize] = {};
  // Effective view: every index slot -- private, borrowed from the
  // baseline, or reset to zero -- and absent pages read as 0.
  const auto effective = [](const Memory& m, std::uint32_t page_no) {
    const std::uint8_t* page = m.page_for_read(page_no << Memory::kPageBits);
    return page != nullptr ? page : kZeroPage;
  };
  const auto covered_by = [&effective](const Memory& lhs, const Memory& rhs) {
    for (std::uint32_t i = 0; i < lhs.index_capacity(); ++i) {
      const Memory::Slot& slot = lhs.slots_[i];
      if (slot.key == Memory::kNoPage || slot.page == nullptr) continue;
      if (std::memcmp(slot.page, effective(rhs, slot.key),
                      Memory::kPageSize) != 0) {
        return false;
      }
    }
    return true;
  };
  return covered_by(a, b) && covered_by(b, a);
}

void Memory::load_bytes(std::uint32_t addr,
                        std::span<const std::uint8_t> bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::uint8_t* page = page_for_write(addr + static_cast<std::uint32_t>(i));
    page[(addr + i) & kOffsetMask] = bytes[i];
  }
}

void Memory::load_words(std::uint32_t addr,
                        std::span<const std::uint32_t> words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(i) * 4;
    if ((a & 3u) != 0) misaligned(a, 4);
    std::uint8_t* page = page_for_write(a);
    std::memcpy(page + (a & kOffsetMask), &words[i], 4);
  }
}

std::vector<std::uint32_t> Memory::read_words(std::uint32_t addr,
                                              std::size_t count) const {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(fetch32(addr + static_cast<std::uint32_t>(i) * 4));
  }
  return out;
}

}  // namespace zolcsim::mem
