#include "src/experiment_service/shard_executor.h"

#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>

#include "src/core/sweep_runner.h"

namespace themis {

namespace {

std::string ShardArtifactPath(const std::string& dir, const std::string& grid, int shard_index,
                              int shard_count, const char* suffix) {
  std::string path = dir.empty() ? std::string(".") : dir;
  if (path.back() != '/') {
    path.push_back('/');
  }
  path += grid + ".shard" + std::to_string(shard_index) + "of" + std::to_string(shard_count) +
          suffix;
  return path;
}

}  // namespace

std::string ShardJournalPath(const std::string& dir, const std::string& grid, int shard_index,
                             int shard_count) {
  return ShardArtifactPath(dir, grid, shard_index, shard_count, ".journal");
}

std::string ShardCsvPath(const std::string& dir, const std::string& grid, int shard_index,
                         int shard_count) {
  return ShardArtifactPath(dir, grid, shard_index, shard_count, ".csv");
}

ShardExecutor::ShardExecutor(SweepManifest manifest, ShardOptions options)
    : manifest_(std::move(manifest)), options_(std::move(options)) {}

std::string ShardExecutor::JournalPath() const {
  return ShardJournalPath(options_.dir, manifest_.grid, options_.shard_index,
                          options_.shard_count);
}

std::string ShardExecutor::CsvPath() const {
  return ShardCsvPath(options_.dir, manifest_.grid, options_.shard_index, options_.shard_count);
}

bool ShardExecutor::Run(const PointFn& fn, std::string* error) {
  stats_ = ShardStats{};
  const auto wall_start = std::chrono::steady_clock::now();
  const auto finish = [&](bool ok) {
    stats_.shard_wall_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                                              wall_start)
            .count());
    return ok;
  };
  if (options_.shard_count < 1 || options_.shard_index < 0 ||
      options_.shard_index >= options_.shard_count) {
    if (error != nullptr) {
      *error = "invalid shard " + std::to_string(options_.shard_index) + "/" +
               std::to_string(options_.shard_count);
    }
    return finish(false);
  }

  const std::vector<size_t> slice =
      manifest_.ShardSlice(options_.shard_count, options_.shard_index);

  // Replay the journal: a record satisfies a point only when its config hash
  // still matches the manifest, so an edited point re-executes while its
  // neighbours' results are reused verbatim.
  std::map<uint32_t, std::vector<std::string>> completed;  // point index -> rows
  if (options_.resume) {
    std::map<uint32_t, JournalRecord> replay;  // last complete record wins
    for (JournalRecord& record : LoadJournal(JournalPath())) {
      replay[record.index] = std::move(record);
    }
    for (size_t pos : slice) {
      const ManifestPoint& point = manifest_.points[pos];
      auto it = replay.find(point.index);
      if (it != replay.end() && it->second.config_hash == point.config_hash) {
        completed[point.index] = std::move(it->second.rows);
      }
    }
  }

  std::vector<size_t> missing;
  for (size_t pos : slice) {
    if (completed.count(manifest_.points[pos].index) == 0) {
      missing.push_back(pos);
    } else {
      ++stats_.points_skipped;
    }
  }

  JournalWriter journal;
  if (!journal.Open(JournalPath(), /*append=*/options_.resume, error)) {
    return finish(false);
  }

  std::mutex mu;
  std::string first_error;
  std::map<uint32_t, std::vector<std::string>> fresh;
  SweepRunner runner(options_.threads);
  runner.RunIndexed(missing.size(), [&](size_t i) {
    const ManifestPoint& point = manifest_.points[missing[i]];
    std::vector<std::string> rows;
    try {
      rows = fn(point);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      ++stats_.points_failed;
      if (first_error.empty()) {
        first_error = "point " + std::to_string(point.index) + " (" + point.name +
                      ") failed: " + e.what();
      }
      return;
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      ++stats_.points_failed;
      if (first_error.empty()) {
        first_error = "point " + std::to_string(point.index) + " (" + point.name +
                      ") failed with a non-std exception";
      }
      return;
    }
    // Journal appends happen in completion order — that is fine, because the
    // CSV below (and any later merge) re-sorts by point index.
    std::lock_guard<std::mutex> lock(mu);
    JournalRecord record;
    record.index = point.index;
    record.config_hash = point.config_hash;
    record.rows = rows;
    if (!journal.Append(record)) {
      ++stats_.points_failed;
      if (first_error.empty()) {
        first_error = "journal write failed for point " + std::to_string(point.index);
      }
      return;
    }
    ++stats_.points_done;
    fresh[point.index] = std::move(rows);
  });
  journal.Close();

  for (auto& [index, rows] : fresh) {
    completed[index] = std::move(rows);
  }

  // Shard CSV: header + this slice's rows in ascending point index. Failed
  // points contribute nothing (they are also absent from the journal, so a
  // resume retries them).
  {
    std::ofstream csv(CsvPath());
    if (!csv) {
      if (first_error.empty()) {
        first_error = "cannot open " + CsvPath() + " for writing";
      }
    } else {
      csv << manifest_.csv_header << "\n";
      for (const auto& [index, rows] : completed) {
        for (const std::string& row : rows) {
          csv << row << "\n";
        }
      }
      csv.flush();
      if (!csv && first_error.empty()) {
        first_error = "write to " + CsvPath() + " failed";
      }
    }
  }

  if (!first_error.empty()) {
    if (error != nullptr) {
      *error = first_error;
    }
    return finish(false);
  }
  return finish(true);
}

void ShardExecutor::RegisterCounters(CounterRegistry* registry) const {
  registry->RegisterCounter("sweep.points_done", &stats_.points_done);
  registry->RegisterCounter("sweep.points_skipped", &stats_.points_skipped);
  registry->RegisterCounter("sweep.points_failed", &stats_.points_failed);
  registry->RegisterCounter("sweep.shard_wall_ms", &stats_.shard_wall_ms);
}

}  // namespace themis
