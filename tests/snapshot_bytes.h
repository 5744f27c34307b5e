#ifndef WEBTAB_TESTS_SNAPSHOT_BYTES_H_
#define WEBTAB_TESTS_SNAPSHOT_BYTES_H_

// Byte-surgery helpers for snapshot rejection tests: read and patch a
// serialized snapshot in memory, re-fix its checksum so the mutation
// models an attacker-authored (or legacy) file rather than bit rot, and
// write it out for Snapshot::Open.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "storage/format.h"

namespace webtab {
namespace testing_util {

inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

inline void WriteBytes(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

/// Reads a POD header out of a byte buffer.
template <typename T>
T ReadPod(const std::vector<uint8_t>& bytes, uint64_t offset) {
  T out;
  std::memcpy(&out, bytes.data() + offset, sizeof(T));
  return out;
}

/// Absolute offset of the SectionEntry record of the first section of
/// `kind`; 0 when absent.
inline uint64_t SectionEntryOffsetOf(const std::vector<uint8_t>& bytes,
                                     uint32_t kind) {
  auto header = ReadPod<storage::FileHeader>(bytes, 0);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const uint64_t at =
        header.section_table_offset + i * sizeof(storage::SectionEntry);
    if (ReadPod<storage::SectionEntry>(bytes, at).kind == kind) return at;
  }
  return 0;
}

/// Absolute offset of the first section of `kind`; 0 when absent.
inline uint64_t SectionOffsetOf(const std::vector<uint8_t>& bytes,
                                uint32_t kind) {
  const uint64_t entry = SectionEntryOffsetOf(bytes, kind);
  return entry == 0 ? 0
                    : ReadPod<storage::SectionEntry>(bytes, entry).offset;
}

/// Recomputes the payload checksum after a surgical mutation, so the
/// file models an attacker-authored snapshot rather than bit rot.
inline void FixChecksum(std::vector<uint8_t>* bytes) {
  const uint64_t payload = sizeof(storage::FileHeader);
  uint64_t checksum = storage::Checksum64(bytes->data() + payload,
                                          bytes->size() - payload);
  std::memcpy(bytes->data() + offsetof(storage::FileHeader,
                                       payload_checksum),
              &checksum, sizeof(checksum));
}

}  // namespace testing_util
}  // namespace webtab

#endif  // WEBTAB_TESTS_SNAPSHOT_BYTES_H_
