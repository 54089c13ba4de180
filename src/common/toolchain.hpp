// Identity of the compiler that built the library. One definition, so every
// record of it -- the unit store's toolchain tag and the BENCH artifact's
// `toolchain` field -- names the same compiler in the same words.
#ifndef ZOLCSIM_COMMON_TOOLCHAIN_HPP
#define ZOLCSIM_COMMON_TOOLCHAIN_HPP

#include <string>

namespace zolcsim {

/// Compiler name and version, e.g. "gcc 13.2.0"; "unknown" for compilers
/// that are neither clang nor gcc-compatible.
[[nodiscard]] std::string compiler_id();

}  // namespace zolcsim

#endif  // ZOLCSIM_COMMON_TOOLCHAIN_HPP
