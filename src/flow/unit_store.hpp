// UnitStore: an on-disk, content-addressed cache of CompiledUnits, so a
// fresh process can skip the compile stage entirely for units any earlier
// process already compiled (ROADMAP: "zolcsim as a service").
//
// Artifacts are one JSON file per unit under a caller-chosen directory,
// named unit-<key>.json where key = FNV-1a 64 over the full CompileSpec key
// (kernel | machine | geometry | env) plus the toolchain tag. The payload
// reuses the `zolcsim compile --format=json` codec verbatim, wrapped in an
// envelope carrying the format version, toolchain tag, the spec (so load
// can reject hash collisions), and an FNV-1a 64 integrity digest of the
// canonical unit JSON. load() re-emits the reconstructed unit through the
// same codec and compares digests, so any content-altering corruption --
// and any codec infidelity -- is caught as ErrorCode::kStoreCorrupt;
// artifacts written by a different compiler build are rejected as
// kStoreStale. Writes go through a temp file + rename, so a concurrent
// reader never observes a half-written artifact.
//
// A UnitStore never fails a compile pipeline: CompileCache treats every
// load() error as a plain miss (and recompiles over the bad artifact); the
// typed errors surface to direct callers, `zolcsim store stat`, and tests.
#ifndef ZOLCSIM_FLOW_UNIT_STORE_HPP
#define ZOLCSIM_FLOW_UNIT_STORE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "flow/compiled_unit.hpp"

namespace zolcsim::json {
class Value;
}

namespace zolcsim::flow {

class UnitStore {
 public:
  /// Artifact format version; part of every artifact's envelope (but not of
  /// the key: a format bump makes old artifacts collectable, not aliased).
  static constexpr std::string_view kFormat = "zolcsim-unit-v1";

  /// The directory is created lazily on first save(); a missing directory
  /// loads as all-misses.
  explicit UnitStore(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Compatibility tag baked into the key and the envelope: artifacts are
  /// shared only between identical simulator builds (compiler + format
  /// version), the conservative validity condition for compiled output.
  [[nodiscard]] static std::string toolchain_tag();

  /// Content key of `spec` under the current toolchain tag.
  [[nodiscard]] static std::uint64_t key_of(const CompileSpec& spec);

  /// Loads the artifact for `spec`. A missing artifact is a miss, not an
  /// error: ok(nullptr). Typed failures: kStoreStale (foreign toolchain
  /// tag), kStoreCorrupt (unparsable / wrong shape / key or digest
  /// mismatch), kUnknownKernel (kernel no longer registered), kIo.
  [[nodiscard]] Result<std::shared_ptr<const CompiledUnit>> load(
      const CompileSpec& spec);

  /// Serializes `unit` under its spec's key (atomic replace). kIo on
  /// filesystem failure.
  [[nodiscard]] Result<void> save(const CompiledUnit& unit);

  /// Session counters (since construction). Thread-safe, like load/save.
  struct Stats {
    std::size_t hits = 0;      ///< load() returned a unit
    std::size_t misses = 0;    ///< load() found no artifact
    std::size_t rejects = 0;   ///< load() failed typed validation
    std::size_t saves = 0;     ///< successful save() calls
  };
  [[nodiscard]] Stats stats() const;

  /// One artifact as seen by stat()/gc(), classified with the same full
  /// validation load() applies (envelope, spec/filename key, payload
  /// digest), so `store stat` reports exactly what load() would do.
  struct ArtifactInfo {
    std::string file;  ///< filename within dir()
    std::uint64_t bytes = 0;
    enum class State : std::uint8_t {
      kCurrent,  ///< load() would return this unit
      kStale,    ///< foreign toolchain tag or unregistered kernel
      kCorrupt,  ///< unparsable, wrong shape, or failed integrity check
    } state = State::kCorrupt;
  };

  /// Scans the store directory (unit-*.json). A missing directory is an
  /// empty store; kIo only for real filesystem failures.
  [[nodiscard]] Result<std::vector<ArtifactInfo>> scan_artifacts() const;

  /// scan_artifacts() tallied by state: what `store stat` and the daemon's
  /// store-stat reply report.
  struct Inventory {
    std::size_t current = 0;
    std::size_t stale = 0;
    std::size_t corrupt = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] Result<Inventory> inventory() const;

  struct GcOutcome {
    std::size_t removed = 0;
    std::uint64_t bytes_freed = 0;
    std::size_t kept = 0;
  };
  /// Deletes stale and corrupt artifacts, keeps current ones.
  [[nodiscard]] Result<GcOutcome> gc();

 private:
  [[nodiscard]] std::string path_for(const CompileSpec& spec) const;
  /// Every check load() and scan_artifacts() apply to a parsed artifact,
  /// in one order: envelope members, format, toolchain tag, spec, the
  /// caller's key check, payload digest, kernel registration, and the
  /// payload decode with its digest re-check. `key_mismatch` is the one
  /// check that differs: it says why the stored spec does not belong where
  /// the artifact was found, or returns nullopt. Typed failures:
  /// kStoreStale (foreign toolchain tag), kUnknownKernel (kernel not
  /// registered), kStoreCorrupt (everything else).
  [[nodiscard]] static Result<CompiledUnit> validate_artifact(
      const json::Value& root,
      const std::function<std::optional<std::string>(const CompileSpec&)>&
          key_mismatch);
  /// Full-load classification of one parsed artifact for scan_artifacts().
  [[nodiscard]] static ArtifactInfo::State classify_artifact(
      const json::Value& root, const std::string& filename);

  std::string dir_;
  mutable std::mutex mutex_;  ///< guards stats_ only; files are per-key
  Stats stats_;
};

}  // namespace zolcsim::flow

#endif  // ZOLCSIM_FLOW_UNIT_STORE_HPP
