#include "exec/dml.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/guid.h"
#include "exec/scan.h"
#include "lst/deletion_vector.h"
#include "lst/manifest_io.h"
#include "storage/path_util.h"

namespace polaris::exec {

using common::Result;
using common::Status;
using format::RecordBatch;
using format::Value;
using lst::ManifestEntry;

namespace {

/// Rough per-row width for cost estimation.
uint64_t EstimateRowBytes(const format::Schema& schema) {
  uint64_t width = 0;
  for (const auto& col : schema.columns()) {
    width += col.type == format::ColumnType::kString ? 16 : 8;
  }
  return width == 0 ? 8 : width;
}

uint64_t HashValue(const Value& v) {
  // FNV-1a over the value payload.
  auto mix = [](uint64_t h, const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  uint64_t h = 0xcbf29ce484222325ULL;
  if (v.is_null) return h;
  switch (v.type) {
    case format::ColumnType::kInt64:
      return mix(h, &v.i64, sizeof(v.i64));
    case format::ColumnType::kDouble:
      return mix(h, &v.f64, sizeof(v.f64));
    case format::ColumnType::kString:
      return mix(h, v.str.data(), v.str.size());
  }
  return h;
}

/// Per-task result slot. A retried task overwrites its slot, so outputs of
/// abandoned attempts are never referenced (their staged blocks and data
/// files become garbage, reclaimed by GC — paper §3.2.2, §5.3).
struct TaskSlot {
  std::string block_id;
  std::vector<ManifestEntry> entries;
  std::set<std::string> touched_files;
  uint64_t rows_affected = 0;
};

WriteResult AssembleResult(std::vector<TaskSlot> slots,
                           dcp::JobMetrics job) {
  WriteResult result;
  result.job = job;
  for (auto& slot : slots) {
    if (slot.block_id.empty()) continue;
    result.block_ids.push_back(std::move(slot.block_id));
    result.entries.insert(result.entries.end(),
                          std::make_move_iterator(slot.entries.begin()),
                          std::make_move_iterator(slot.entries.end()));
    result.touched_files.insert(slot.touched_files.begin(),
                                slot.touched_files.end());
    result.rows_affected += slot.rows_affected;
  }
  return result;
}

/// Re-orders `batch` by the context's sort column (no-op when unsorted).
/// Implements the p(r) clustering that makes zone maps selective (§2.3).
RecordBatch SortForWrite(const DmlContext& ctx, const RecordBatch& batch) {
  if (ctx.sort_column < 0 ||
      static_cast<size_t>(ctx.sort_column) >= batch.num_columns()) {
    return batch;
  }
  std::vector<size_t> order(batch.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const format::ColumnVector& key = batch.column(ctx.sort_column);
  std::stable_sort(order.begin(), order.end(),
                   [&key](size_t a, size_t b) {
                     return key.ValueAt(a).Compare(key.ValueAt(b)) < 0;
                   });
  RecordBatch sorted(batch.schema());
  for (size_t i : order) (void)sorted.AppendRow(batch.GetRow(i));
  return sorted;
}

/// Writes `batch` as one immutable data file for `cell`; returns the
/// AddFile entry. Fresh GUID per call, so per attempt.
Result<ManifestEntry> WriteDataFile(const DmlContext& ctx,
                                    const RecordBatch& batch, uint32_t cell) {
  format::FileWriter writer(ctx.schema, ctx.file_options);
  POLARIS_RETURN_IF_ERROR(writer.Append(SortForWrite(ctx, batch)));
  POLARIS_ASSIGN_OR_RETURN(std::string bytes, std::move(writer).Finish());
  std::string guid = common::Guid::Generate().ToString();
  std::string path = storage::PathUtil::DataFilePath(ctx.table_id, guid);
  uint64_t size = bytes.size();
  POLARIS_RETURN_IF_ERROR(ctx.store->Put(path, std::move(bytes)));
  lst::DataFileInfo info;
  info.path = std::move(path);
  info.row_count = batch.num_rows();
  info.byte_size = size;
  info.cell_id = cell;
  return ManifestEntry::AddFile(std::move(info));
}

}  // namespace

Result<WriteResult> InsertExecutor::Run(const DmlContext& ctx,
                                        const RecordBatch& rows) {
  if (!(rows.schema() == ctx.schema)) {
    return Status::InvalidArgument("insert batch schema mismatch");
  }
  // Partition rows into cells via the distribution function d(r).
  std::map<uint32_t, RecordBatch> cells;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    uint32_t cell;
    if (ctx.distribution_column >= 0 &&
        static_cast<size_t>(ctx.distribution_column) < rows.num_columns()) {
      cell = static_cast<uint32_t>(
          HashValue(rows.column(ctx.distribution_column).ValueAt(r)) %
          ctx.num_cells);
    } else {
      cell = static_cast<uint32_t>(r % ctx.num_cells);
    }
    auto [it, inserted] = cells.try_emplace(cell, ctx.schema);
    (void)inserted;
    POLARIS_RETURN_IF_ERROR(it->second.AppendRow(rows.GetRow(r)));
  }

  std::vector<TaskSlot> slots(cells.size());
  std::mutex slots_mu;
  dcp::TaskDag dag;
  uint64_t row_bytes = EstimateRowBytes(ctx.schema);

  size_t slot_idx = 0;
  for (auto& [cell, batch] : cells) {
    dcp::Task task;
    task.kind = "insert";
    task.cells = {cell};
    task.cost.rows = batch.num_rows() * ctx.cost_scale;
    task.cost.input_bytes = batch.num_rows() * row_bytes * ctx.cost_scale;
    task.cost.output_bytes = batch.num_rows() * row_bytes * ctx.cost_scale;
    task.cost.files_touched = 1;
    uint32_t cell_copy = cell;
    const RecordBatch* batch_ptr = &batch;
    size_t my_slot = slot_idx++;
    task.work = [&ctx, &slots, &slots_mu, cell_copy, batch_ptr,
                 my_slot](const dcp::TaskContext&) -> Status {
      POLARIS_ASSIGN_OR_RETURN(ManifestEntry entry,
                               WriteDataFile(ctx, *batch_ptr, cell_copy));
      lst::ManifestBlockWriter block_writer(ctx.store, ctx.manifest_path);
      POLARIS_ASSIGN_OR_RETURN(std::string block_id,
                               block_writer.StageEntries({entry}));
      std::lock_guard<std::mutex> lock(slots_mu);
      TaskSlot& slot = slots[my_slot];
      slot = TaskSlot{};  // overwrite any earlier attempt
      slot.block_id = std::move(block_id);
      slot.entries = {std::move(entry)};
      slot.rows_affected = batch_ptr->num_rows();
      return Status::OK();
    };
    dag.Add(std::move(task));
  }

  POLARIS_ASSIGN_OR_RETURN(dcp::JobMetrics job,
                           ctx.scheduler->Run(dag, ctx.pool));
  return AssembleResult(std::move(slots), job);
}

Result<WriteResult> InsertExecutor::RunSources(
    const DmlContext& ctx, const std::vector<RecordBatch>& sources) {
  std::vector<TaskSlot> slots(sources.size());
  std::mutex slots_mu;
  dcp::TaskDag dag;
  uint64_t row_bytes = EstimateRowBytes(ctx.schema);

  for (size_t s = 0; s < sources.size(); ++s) {
    const RecordBatch& batch = sources[s];
    if (!(batch.schema() == ctx.schema)) {
      return Status::InvalidArgument("source batch schema mismatch");
    }
    uint32_t cell = static_cast<uint32_t>(s % ctx.num_cells);
    dcp::Task task;
    task.kind = "load";
    task.cells = {cell};
    task.cost.rows = batch.num_rows() * ctx.cost_scale;
    task.cost.input_bytes = batch.num_rows() * row_bytes * ctx.cost_scale;
    task.cost.output_bytes = batch.num_rows() * row_bytes * ctx.cost_scale;
    task.cost.files_touched = 2;  // read source + write target
    const RecordBatch* batch_ptr = &batch;
    task.work = [&ctx, &slots, &slots_mu, cell, batch_ptr,
                 s](const dcp::TaskContext&) -> Status {
      POLARIS_ASSIGN_OR_RETURN(ManifestEntry entry,
                               WriteDataFile(ctx, *batch_ptr, cell));
      lst::ManifestBlockWriter block_writer(ctx.store, ctx.manifest_path);
      POLARIS_ASSIGN_OR_RETURN(std::string block_id,
                               block_writer.StageEntries({entry}));
      std::lock_guard<std::mutex> lock(slots_mu);
      TaskSlot& slot = slots[s];
      slot = TaskSlot{};
      slot.block_id = std::move(block_id);
      slot.entries = {std::move(entry)};
      slot.rows_affected = batch_ptr->num_rows();
      return Status::OK();
    };
    dag.Add(std::move(task));
  }

  // Max parallelism = number of source files (paper §7.1).
  POLARIS_ASSIGN_OR_RETURN(
      dcp::JobMetrics job,
      ctx.scheduler->Run(dag, ctx.pool,
                         static_cast<uint32_t>(sources.size())));
  return AssembleResult(std::move(slots), job);
}

namespace {

/// Groups the snapshot's files by cell and builds one task per cell, each
/// task receiving a mini-snapshot of just its files — disjoint cell sets
/// give write isolation across tasks (paper §4.3).
struct CellGroup {
  uint32_t cell = 0;
  lst::TableSnapshot snapshot;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  uint32_t files = 0;
};

std::vector<CellGroup> GroupByCell(const lst::TableSnapshot& snapshot) {
  std::map<uint32_t, CellGroup> groups;
  for (const auto& [path, state] : snapshot.files()) {
    (void)path;
    CellGroup& group = groups[state.info.cell_id];
    group.cell = state.info.cell_id;
    group.snapshot.InsertFile(state);
    group.rows += state.info.row_count;
    group.bytes += state.info.byte_size;
    group.files += 1;
  }
  std::vector<CellGroup> out;
  out.reserve(groups.size());
  for (auto& [cell, group] : groups) {
    (void)cell;
    out.push_back(std::move(group));
  }
  return out;
}

/// Shared body of DELETE and UPDATE: scan matching rows per file, write
/// one merged DV per touched file, and (for UPDATE) collect rewritten rows
/// per cell.
Status MutateCellGroup(const DmlContext& ctx, const CellGroup& group,
                       const Conjunction& filter,
                       const std::vector<Assignment>* assignments,
                       TaskSlot* slot) {
  std::vector<ManifestEntry> entries;
  std::set<std::string> touched;
  uint64_t affected = 0;
  RecordBatch rewritten(ctx.schema);

  // The scan calls back once per row group, so a file's matches arrive in
  // several callbacks; they are gathered first and written as one DV.
  std::map<std::string, std::pair<const lst::FileState*, std::vector<uint64_t>>>
      deletions;
  TableScanner scanner(ctx.cache, &group.snapshot);
  ScanOptions options;
  options.filter = filter;
  Status scan_status = scanner.ScanFilesWithOrdinals(
      options,
      [&](const lst::FileState& file, const RecordBatch& batch,
          const std::vector<uint64_t>& ordinals) -> Status {
        auto& [state, file_ordinals] = deletions[file.info.path];
        state = &file;
        file_ordinals.insert(file_ordinals.end(), ordinals.begin(),
                             ordinals.end());
        affected += ordinals.size();

        if (assignments != nullptr) {
          // UPDATE: re-insert matching rows with assignments applied.
          for (size_t r = 0; r < batch.num_rows(); ++r) {
            format::Row row = batch.GetRow(r);
            for (const auto& assign : *assignments) {
              int idx = ctx.schema.FindColumn(assign.column);
              if (idx < 0) {
                return Status::InvalidArgument("unknown update column: " +
                                               assign.column);
              }
              switch (assign.kind) {
                case Assignment::Kind::kSetValue:
                  row[idx] = assign.value;
                  break;
                case Assignment::Kind::kAddInt64:
                  if (!row[idx].is_null) row[idx].i64 += assign.value.i64;
                  break;
                case Assignment::Kind::kAddDouble:
                  if (!row[idx].is_null) row[idx].f64 += assign.value.f64;
                  break;
              }
            }
            POLARIS_RETURN_IF_ERROR(rewritten.AppendRow(row));
          }
        }
        return Status::OK();
      });
  POLARIS_RETURN_IF_ERROR(scan_status);

  for (const auto& [path, found] : deletions) {
    const auto& [file, ordinals] = found;
    // Merge the new deletions with the file's existing DV.
    lst::DeletionVector merged;
    if (!file->dv_path.empty()) {
      POLARIS_ASSIGN_OR_RETURN(auto existing,
                               ctx.cache->GetDeleteVector(file->dv_path));
      merged = *existing;
    }
    for (uint64_t ordinal : ordinals) merged.MarkDeleted(ordinal);
    std::string guid = common::Guid::Generate().ToString();
    std::string dv_path =
        storage::PathUtil::DeleteVectorPath(ctx.table_id, guid);
    POLARIS_RETURN_IF_ERROR(ctx.store->Put(dv_path, merged.ToBlob()));
    if (!file->dv_path.empty()) {
      entries.push_back(ManifestEntry::RemoveDv(file->dv_path, path));
    }
    lst::DeleteVectorInfo info;
    info.path = dv_path;
    info.target_data_file = path;
    info.deleted_count = merged.cardinality();
    entries.push_back(ManifestEntry::AddDv(std::move(info)));
    touched.insert(path);
  }

  if (assignments != nullptr && rewritten.num_rows() > 0) {
    POLARIS_ASSIGN_OR_RETURN(ManifestEntry entry,
                             WriteDataFile(ctx, rewritten, group.cell));
    entries.push_back(std::move(entry));
  }

  if (entries.empty()) {
    *slot = TaskSlot{};  // nothing matched in this cell group
    return Status::OK();
  }
  lst::ManifestBlockWriter block_writer(ctx.store, ctx.manifest_path);
  POLARIS_ASSIGN_OR_RETURN(std::string block_id,
                           block_writer.StageEntries(entries));
  *slot = TaskSlot{};
  slot->block_id = std::move(block_id);
  slot->entries = std::move(entries);
  slot->touched_files = std::move(touched);
  slot->rows_affected = affected;
  return Status::OK();
}

Result<WriteResult> RunMutation(const DmlContext& ctx,
                                const lst::TableSnapshot& snapshot,
                                const Conjunction& filter,
                                const std::vector<Assignment>* assignments) {
  std::vector<CellGroup> groups = GroupByCell(snapshot);
  std::vector<TaskSlot> slots(groups.size());
  std::mutex slots_mu;
  dcp::TaskDag dag;

  for (size_t i = 0; i < groups.size(); ++i) {
    const CellGroup& group = groups[i];
    dcp::Task task;
    task.kind = assignments != nullptr ? "update" : "delete";
    task.cells = {group.cell};
    task.cost.rows = group.rows * ctx.cost_scale;
    task.cost.input_bytes = group.bytes * ctx.cost_scale;
    task.cost.output_bytes = group.bytes * ctx.cost_scale / 8;  // DVs are small
    task.cost.files_touched = group.files;
    task.work = [&ctx, &groups, &slots, &slots_mu, i, &filter,
                 assignments](const dcp::TaskContext&) -> Status {
      TaskSlot local;
      POLARIS_RETURN_IF_ERROR(
          MutateCellGroup(ctx, groups[i], filter, assignments, &local));
      std::lock_guard<std::mutex> lock(slots_mu);
      slots[i] = std::move(local);
      return Status::OK();
    };
    dag.Add(std::move(task));
  }

  POLARIS_ASSIGN_OR_RETURN(dcp::JobMetrics job,
                           ctx.scheduler->Run(dag, ctx.pool));
  return AssembleResult(std::move(slots), job);
}

}  // namespace

Result<WriteResult> DeleteExecutor::Run(const DmlContext& ctx,
                                        const lst::TableSnapshot& snapshot,
                                        const Conjunction& filter) {
  return RunMutation(ctx, snapshot, filter, nullptr);
}

Result<WriteResult> UpdateExecutor::Run(
    const DmlContext& ctx, const lst::TableSnapshot& snapshot,
    const Conjunction& filter, const std::vector<Assignment>& assignments) {
  if (assignments.empty()) {
    return Status::InvalidArgument("UPDATE requires at least one assignment");
  }
  return RunMutation(ctx, snapshot, filter, &assignments);
}

}  // namespace polaris::exec
