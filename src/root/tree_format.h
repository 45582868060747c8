#ifndef DAVIX_ROOT_TREE_FORMAT_H_
#define DAVIX_ROOT_TREE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "compress/codec.h"

namespace davix {
namespace root {

/// One column ("branch") of the event tree: a fixed number of bytes per
/// event, like a flattened ROOT TBranch of simple types.
struct BranchSpec {
  std::string name;
  /// Bytes stored per event in this branch (e.g. 4 for a float).
  uint32_t bytes_per_event = 4;
};

/// Parameters of a synthetic tree file — the stand-in for the paper's
/// "700 MBytes root file" with "around 12000 particle events".
struct TreeSpec {
  uint64_t n_events = 12000;
  /// Events per basket (a basket is the unit of compression and of I/O,
  /// exactly as in ROOT).
  uint32_t events_per_basket = 250;
  compress::CodecType codec = compress::CodecType::kDlz;
  std::vector<BranchSpec> branches;

  /// The default HEP-flavoured schema: a few scalar kinematics branches
  /// plus one fat calorimeter-cells branch that dominates volume.
  static TreeSpec Default();

  uint64_t BytesPerEvent() const;
  uint64_t BasketCountPerBranch() const;
};

/// Location of one stored basket inside the file.
struct BasketInfo {
  uint64_t offset = 0;
  /// Stored (compressed frame) length.
  uint32_t stored_length = 0;
  /// Decompressed payload length.
  uint32_t raw_length = 0;
};

/// Parsed header + basket index of a tree file.
struct TreeIndex {
  TreeSpec spec;
  /// baskets[branch][basket] — every branch has the same basket count.
  std::vector<std::vector<BasketInfo>> baskets;
  /// Offset where basket data begins (end of header+index region).
  uint64_t data_begin = 0;
  /// Total file size recorded in the header.
  uint64_t file_size = 0;
};

/// Builds a complete tree file in memory from deterministic synthetic
/// event data (seeded), basket by basket, compressed with spec.codec.
///
/// Layout: header | branch table | basket index | basket blobs. Blobs
/// are written cluster-major (all branches' basket k, then basket k+1),
/// mirroring ROOT's cluster layout so that one event-range read touches
/// a set of nearby-but-disjoint ranges — the access pattern §2.3 packs
/// into multi-range queries.
std::string BuildTreeFile(const TreeSpec& spec, uint64_t seed);

/// Fixed size of the leading header record.
constexpr size_t kTreeHeaderSize = 41;

/// Reads the fixed header and returns the size of the full header+index
/// region (`data_begin`). Callers fetch at least kTreeHeaderSize bytes,
/// call this, fetch whatever of the region they still lack, then call
/// ParseTreeIndex.
Result<uint64_t> TreeIndexRegionSize(std::string_view header);

/// Parses the complete header+index region (`head` must hold at least
/// TreeIndexRegionSize bytes).
Result<TreeIndex> ParseTreeIndex(std::string_view head);

/// Bytes of synthetic payload for event `event` of branch `branch`
/// (deterministic; used by tests to validate reads end to end).
std::string SyntheticEventBytes(const TreeSpec& spec, size_t branch,
                                uint64_t event, uint64_t seed);

/// Magic bytes at offset 0 of every tree file.
inline constexpr char kTreeMagic[4] = {'D', 'T', 'R', 'F'};

}  // namespace root
}  // namespace davix

#endif  // DAVIX_ROOT_TREE_FORMAT_H_
