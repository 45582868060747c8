#include "root/tree_reader.h"

namespace davix {
namespace root {

Result<TreeReader> TreeReader::Open(RandomAccessFile* file) {
  DAVIX_ASSIGN_OR_RETURN(std::string head, file->PRead(0, kOpenHeadBytes));
  DAVIX_ASSIGN_OR_RETURN(uint64_t region, TreeIndexRegionSize(head));
  if (region > file->Size()) {
    return Status::Corruption("tree index region exceeds file size");
  }
  if (region > head.size()) {
    DAVIX_ASSIGN_OR_RETURN(std::string rest,
                           file->PRead(head.size(), region - head.size()));
    head += rest;
  }
  DAVIX_ASSIGN_OR_RETURN(TreeIndex index, ParseTreeIndex(head));
  return TreeReader(file, std::move(index));
}

Result<size_t> TreeReader::BranchIndex(const std::string& name) const {
  for (size_t i = 0; i < index_.spec.branches.size(); ++i) {
    if (index_.spec.branches[i].name == name) return i;
  }
  return Status::NotFound("no branch named " + name);
}

Result<std::string> TreeReader::DecodeBasket(std::string_view blob) {
  return compress::Decompress(blob);
}

Result<OwnedTree> OpenTreeUrl(const std::string& url,
                              const StorageOpenParams& params) {
  OwnedTree tree;
  DAVIX_ASSIGN_OR_RETURN(tree.file, OpenStorage(url, params));
  DAVIX_ASSIGN_OR_RETURN(TreeReader reader, TreeReader::Open(tree.file.get()));
  tree.reader = std::make_unique<TreeReader>(std::move(reader));
  return tree;
}

}  // namespace root
}  // namespace davix
