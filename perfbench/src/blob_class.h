#ifndef PERFBENCH_BLOB_CLASS_H_
#define PERFBENCH_BLOB_CLASS_H_

#include <string>
#include <string_view>

namespace perfbench {

/// What a blob is, judged from its object-store path alone (the layout in
/// storage/path_util.h and the catalog journal's "catalog/" prefix).
enum class BlobClass {
  kData,               // tables/<id>/data/<guid>.parquet
  kDv,                 // tables/<id>/data/<guid>.dv
  kManifest,           // tables/<id>/manifests/<guid>.manifest
  kLstCheckpoint,      // tables/<id>/checkpoints/<seq>.checkpoint
  kJournal,            // catalog/journal/<seq>.seg
  kCatalogCheckpoint,  // catalog/ckpt/<seq>.ckpt
  kDeltaLog,           // published/<table>/...
  kOther,              // lease blob and anything unrecognised
};

inline constexpr int kBlobClassCount = 8;

BlobClass ClassifyBlob(std::string_view path);

/// Metric-name suffix: data, dv, manifest, lst_checkpoint, journal,
/// catalog_checkpoint, delta_log, other.
const char* BlobClassName(BlobClass c);

}  // namespace perfbench

#endif  // PERFBENCH_BLOB_CLASS_H_
