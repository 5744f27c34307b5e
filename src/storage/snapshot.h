#ifndef WEBTAB_STORAGE_SNAPSHOT_H_
#define WEBTAB_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/snapshot_views.h"

namespace webtab {
namespace storage {

/// An opened snapshot file: a read-only mmap of the whole file plus
/// resolved zero-copy views for each section present. Opening validates
/// the magic, version, size, checksum (optional but on by default) and
/// the structural integrity of every section; it performs no per-record
/// parsing and materializes nothing on the heap beyond the view objects
/// themselves, so open time and memory are O(validation) regardless of
/// catalog size — the point of the format (ROADMAP: many annotator
/// processes sharing one read-only copy).
///
/// The mapping is shared and read-only: any number of threads (or
/// processes opening the same file) read one physical copy.
class Snapshot {
 public:
  struct OpenOptions {
    /// Verify the payload checksum on open. Costs one streaming
    /// pass over the file; disable for fastest possible opens of
    /// already-trusted files.
    bool verify_checksum = true;
    /// Additionally verify the semantic invariants the accessors rely on
    /// beyond raw bounds: sortedness of every binary-searched array,
    /// acyclicity and parent/child consistency of the type DAG, and
    /// lemma ordinals inside each object's lemma list. A checksum only
    /// proves the file was not corrupted in transit; these checks prove
    /// a *hostile* file cannot make accessors read out of bounds, loop,
    /// or silently misanswer. One extra linear pass over the payload.
    bool deep_validate = false;
  };

  struct SectionInfo {
    uint32_t kind = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
  };

  /// A file with a corpus section but no block-max section (written
  /// before format minor 1) returns kParseError: the engines need its
  /// match-support index.
  static Result<Snapshot> Open(const std::string& path,
                               const OpenOptions& options);
  static Result<Snapshot> Open(const std::string& path) {
    return Open(path, OpenOptions());
  }

  /// Hardened open for untrusted files: full checksum plus deep semantic
  /// validation (see OpenOptions::deep_validate). Every failure mode is a
  /// returned Status, never a CHECK-crash, so a serving process can
  /// refuse a bad snapshot and keep running (ROADMAP: serve untrusted
  /// snapshots safely).
  static Result<Snapshot> OpenValidated(const std::string& path) {
    OpenOptions options;
    options.verify_checksum = true;
    options.deep_validate = true;
    return Open(path, options);
  }

  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot() = default;

  /// Views for the sections present; nullptr when the payload was not
  /// written into this snapshot. Valid as long as the Snapshot lives.
  const SnapshotCatalogView* catalog() const { return catalog_.get(); }
  const SnapshotLemmaIndexView* lemma_index() const {
    return lemma_index_.get();
  }
  const SnapshotCorpusView* corpus() const { return corpus_.get(); }

  uint64_t file_size() const { return size_; }
  uint32_t version() const { return version_; }
  uint64_t version_minor() const { return version_minor_; }
  uint64_t checksum() const { return checksum_; }
  const std::vector<SectionInfo>& sections() const { return sections_; }

 private:
  Snapshot() = default;

  /// Owns the mapping (munmap on destruction).
  struct Mapping {
    const uint8_t* data = nullptr;
    uint64_t size = 0;
    ~Mapping();
  };

  std::unique_ptr<Mapping> mapping_;
  uint64_t size_ = 0;
  uint32_t version_ = 0;
  uint64_t version_minor_ = 0;
  uint64_t checksum_ = 0;
  std::vector<SectionInfo> sections_;
  std::unique_ptr<SnapshotCatalogView> catalog_;
  std::unique_ptr<SnapshotLemmaIndexView> lemma_index_;
  std::unique_ptr<SnapshotCorpusView> corpus_;
};

}  // namespace storage
}  // namespace webtab

#endif  // WEBTAB_STORAGE_SNAPSHOT_H_
