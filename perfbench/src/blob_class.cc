#include "blob_class.h"

namespace perfbench {

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

BlobClass ClassifyBlob(std::string_view path) {
  // Stores may be rooted under a prefix; classify on the tail that starts
  // at the first known namespace.
  for (std::string_view root : {"tables/", "catalog/", "published/"}) {
    size_t at = path.find(root);
    if (at == 0 || (at != std::string_view::npos && path[at - 1] == '/')) {
      path = path.substr(at);
      break;
    }
  }
  if (path.rfind("published/", 0) == 0) return BlobClass::kDeltaLog;
  if (path.rfind("catalog/", 0) == 0) {
    if (path.find("/journal/") != std::string_view::npos &&
        EndsWith(path, ".seg")) {
      return BlobClass::kJournal;
    }
    if (path.find("/ckpt/") != std::string_view::npos &&
        EndsWith(path, ".ckpt")) {
      return BlobClass::kCatalogCheckpoint;
    }
    return BlobClass::kOther;
  }
  if (path.rfind("tables/", 0) == 0) {
    if (path.find("/data/") != std::string_view::npos) {
      if (EndsWith(path, ".parquet")) return BlobClass::kData;
      if (EndsWith(path, ".dv")) return BlobClass::kDv;
    }
    if (path.find("/manifests/") != std::string_view::npos &&
        EndsWith(path, ".manifest")) {
      return BlobClass::kManifest;
    }
    if (path.find("/checkpoints/") != std::string_view::npos &&
        EndsWith(path, ".checkpoint")) {
      return BlobClass::kLstCheckpoint;
    }
  }
  return BlobClass::kOther;
}

const char* BlobClassName(BlobClass c) {
  switch (c) {
    case BlobClass::kData: return "data";
    case BlobClass::kDv: return "dv";
    case BlobClass::kManifest: return "manifest";
    case BlobClass::kLstCheckpoint: return "lst_checkpoint";
    case BlobClass::kJournal: return "journal";
    case BlobClass::kCatalogCheckpoint: return "catalog_checkpoint";
    case BlobClass::kDeltaLog: return "delta_log";
    case BlobClass::kOther: return "other";
  }
  return "other";
}

}  // namespace perfbench
