#ifndef DAVIX_ROOT_TREE_READER_H_
#define DAVIX_ROOT_TREE_READER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "root/random_access_file.h"
#include "root/storage_adapter.h"
#include "root/tree_format.h"

namespace davix {
namespace root {

/// Opens a tree file over any transport and exposes its index — the
/// TTree-metadata role. Basket *data* fetching is TreeCache's job.
class TreeReader {
 public:
  /// Reads and parses the header + basket index. The first read takes
  /// the file's first kOpenHeadBytes, which a remote open already holds;
  /// only an index region larger than that costs a second read, of the
  /// missing suffix alone. `file` must outlive the reader.
  static Result<TreeReader> Open(RandomAccessFile* file);

  const TreeIndex& index() const { return index_; }
  const TreeSpec& spec() const { return index_.spec; }
  RandomAccessFile* file() { return file_; }

  /// Branch position by name.
  Result<size_t> BranchIndex(const std::string& name) const;

  /// Decompresses a fetched basket blob (frame from compress::Compress).
  static Result<std::string> DecodeBasket(std::string_view blob);

 private:
  TreeReader(RandomAccessFile* file, TreeIndex index)
      : file_(file), index_(std::move(index)) {}

  RandomAccessFile* file_;
  TreeIndex index_;
};

/// A TreeReader bundled with the transport it reads through — the
/// "TFile::Open(url)" shape: OpenTreeUrl resolves the scheme through the
/// StorageAdapter registry and keeps the transport alive for the
/// reader's lifetime.
struct OwnedTree {
  std::unique_ptr<RandomAccessFile> file;
  std::unique_ptr<TreeReader> reader;
};

/// Opens `url` via StorageAdapterRegistry::Default() and parses the tree
/// header + index over the resulting transport.
Result<OwnedTree> OpenTreeUrl(const std::string& url,
                              const StorageOpenParams& params);

}  // namespace root
}  // namespace davix

#endif  // DAVIX_ROOT_TREE_READER_H_
