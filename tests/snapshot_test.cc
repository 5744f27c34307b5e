// Snapshot round-trip and rejection tests: text catalog -> snapshot ->
// zero-copy views must be observationally identical to the in-memory
// build (ids, names, lemmas, tuple indexes, closures, probes), and
// corrupt files (truncated, bad magic, wrong version, checksum flips)
// must be rejected at open.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog_io.h"
#include "catalog/closure.h"
#include "index/lemma_index.h"
#include "search/corpus_index.h"
#include "snapshot_bytes.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "test_world.h"

namespace webtab {
namespace {

using storage::Snapshot;
using storage::SnapshotBuilder;
using testing_util::FixChecksum;
using testing_util::ReadPod;
using testing_util::SectionOffsetOf;
using testing_util::SharedIndex;
using testing_util::SharedWorld;
using testing_util::TempPath;
using testing_util::WriteBytes;

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Round-trip through the text format first, as a downstream consumer
    // would: text catalog -> LoadCatalog -> SnapshotBuilder -> file.
    std::stringstream text;
    WEBTAB_CHECK_OK(SaveCatalog(SharedWorld().catalog, text));
    Result<Catalog> loaded = LoadCatalog(text);
    WEBTAB_CHECK(loaded.ok()) << loaded.status().ToString();
    loaded_ = new Catalog(std::move(loaded.value()));
    index_ = new LemmaIndex(loaded_);
    path_ = new std::string(TempPath("world_snapshot.bin"));
    SnapshotBuilder builder;
    builder.SetCatalog(loaded_).SetLemmaIndex(index_);
    WEBTAB_CHECK_OK(builder.WriteToFile(*path_));
    Result<Snapshot> snap = Snapshot::Open(*path_);
    WEBTAB_CHECK(snap.ok()) << snap.status().ToString();
    snap_ = new Snapshot(std::move(snap.value()));
  }

  static void TearDownTestSuite() {
    delete snap_;
    snap_ = nullptr;
    delete index_;
    index_ = nullptr;
    delete loaded_;
    loaded_ = nullptr;
    delete path_;
    path_ = nullptr;
  }

  const Catalog& mem() { return *loaded_; }
  const CatalogView& view() { return *snap_->catalog(); }

  static Catalog* loaded_;
  static LemmaIndex* index_;
  static std::string* path_;
  static Snapshot* snap_;
};

Catalog* SnapshotTest::loaded_ = nullptr;
LemmaIndex* SnapshotTest::index_ = nullptr;
std::string* SnapshotTest::path_ = nullptr;
Snapshot* SnapshotTest::snap_ = nullptr;

template <typename T>
std::vector<T> ToVec(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

TEST_F(SnapshotTest, CatalogCountsAndNames) {
  ASSERT_NE(snap_->catalog(), nullptr);
  EXPECT_EQ(view().num_types(), mem().num_types());
  EXPECT_EQ(view().num_entities(), mem().num_entities());
  EXPECT_EQ(view().num_relations(), mem().num_relations());
  EXPECT_EQ(view().num_tuples(), mem().num_tuples());
  EXPECT_EQ(view().root_type(), mem().root_type());
  for (TypeId t = 0; t < mem().num_types(); ++t) {
    EXPECT_EQ(view().TypeName(t), mem().TypeName(t));
  }
  for (EntityId e = 0; e < mem().num_entities(); ++e) {
    EXPECT_EQ(view().EntityName(e), mem().EntityName(e));
  }
  for (RelationId b = 0; b < mem().num_relations(); ++b) {
    EXPECT_EQ(view().RelationName(b), mem().RelationName(b));
  }
}

TEST_F(SnapshotTest, CatalogRecordsIdentical) {
  for (TypeId t = 0; t < mem().num_types(); ++t) {
    ASSERT_EQ(view().NumTypeLemmas(t), mem().NumTypeLemmas(t));
    for (int32_t i = 0; i < mem().NumTypeLemmas(t); ++i) {
      EXPECT_EQ(view().TypeLemma(t, i), mem().TypeLemma(t, i));
    }
    EXPECT_EQ(ToVec(view().TypeParents(t)), ToVec(mem().TypeParents(t)));
    EXPECT_EQ(ToVec(view().TypeChildren(t)), ToVec(mem().TypeChildren(t)));
    EXPECT_EQ(ToVec(view().TypeDirectEntities(t)),
              ToVec(mem().TypeDirectEntities(t)));
  }
  for (EntityId e = 0; e < mem().num_entities(); ++e) {
    ASSERT_EQ(view().NumEntityLemmas(e), mem().NumEntityLemmas(e));
    for (int32_t i = 0; i < mem().NumEntityLemmas(e); ++i) {
      EXPECT_EQ(view().EntityLemma(e, i), mem().EntityLemma(e, i));
    }
    EXPECT_EQ(ToVec(view().EntityDirectTypes(e)),
              ToVec(mem().EntityDirectTypes(e)));
  }
  for (RelationId b = 0; b < mem().num_relations(); ++b) {
    EXPECT_EQ(view().RelationSubjectType(b), mem().RelationSubjectType(b));
    EXPECT_EQ(view().RelationObjectType(b), mem().RelationObjectType(b));
    EXPECT_EQ(view().RelationCardinalityOf(b),
              mem().RelationCardinalityOf(b));
    EXPECT_EQ(ToVec(view().RelationTuples(b)),
              ToVec(mem().RelationTuples(b)));
    EXPECT_EQ(view().DistinctSubjects(b), mem().DistinctSubjects(b));
    EXPECT_EQ(view().DistinctObjects(b), mem().DistinctObjects(b));
  }
}

TEST_F(SnapshotTest, TupleQueriesIdentical) {
  for (RelationId b = 0; b < mem().num_relations(); ++b) {
    for (const auto& [e1, e2] : mem().RelationTuples(b)) {
      EXPECT_TRUE(view().HasTuple(b, e1, e2));
      EXPECT_FALSE(view().HasTuple(b, e2, e1) != mem().HasTuple(b, e2, e1));
      EXPECT_EQ(ToVec(view().ObjectsOf(b, e1)), ToVec(mem().ObjectsOf(b, e1)));
      EXPECT_EQ(ToVec(view().SubjectsOf(b, e2)),
                ToVec(mem().SubjectsOf(b, e2)));
      EXPECT_EQ(view().RelationsBetween(e1, e2),
                mem().RelationsBetween(e1, e2));
      EXPECT_EQ(view().RelationsBetween(e2, e1),
                mem().RelationsBetween(e2, e1));
    }
  }
  // Non-tuples and invalid relations behave the same.
  EXPECT_FALSE(view().HasTuple(999, 0, 1));
  EXPECT_TRUE(view().ObjectsOf(999, 0).empty());
  EXPECT_TRUE(view().RelationsBetween(0, 0).empty() ==
              mem().RelationsBetween(0, 0).empty());
}

TEST_F(SnapshotTest, NameLookupsIdentical) {
  for (TypeId t = 0; t < mem().num_types(); ++t) {
    EXPECT_EQ(view().FindTypeByName(mem().TypeName(t)), t);
  }
  EXPECT_EQ(view().FindTypeByName("no such type"), kNa);
  for (EntityId e = 0; e < mem().num_entities(); e += 7) {
    EXPECT_EQ(view().FindEntityByName(mem().EntityName(e)), e);
  }
  EXPECT_EQ(view().FindEntityByName("no such entity"), kNa);
  for (RelationId b = 0; b < mem().num_relations(); ++b) {
    EXPECT_EQ(view().FindRelationByName(mem().RelationName(b)), b);
  }
  EXPECT_EQ(view().FindRelationByName(""), kNa);
}

TEST_F(SnapshotTest, ClosuresIdentical) {
  ClosureCache mem_closure(&mem());
  ClosureCache snap_closure(&view());
  for (TypeId t = 0; t < mem().num_types(); ++t) {
    EXPECT_EQ(snap_closure.TypeAncestorsOfType(t),
              mem_closure.TypeAncestorsOfType(t));
    EXPECT_EQ(snap_closure.EntitiesOf(t), mem_closure.EntitiesOf(t));
    EXPECT_EQ(snap_closure.TypeSpecificity(t),
              mem_closure.TypeSpecificity(t));
    EXPECT_EQ(snap_closure.MinEntityDist(t), mem_closure.MinEntityDist(t));
  }
  for (EntityId e = 0; e < mem().num_entities(); e += 3) {
    EXPECT_EQ(snap_closure.TypeAncestors(e), mem_closure.TypeAncestors(e));
  }
}

TEST_F(SnapshotTest, LemmaProbesBitIdentical) {
  ASSERT_NE(snap_->lemma_index(), nullptr);
  const LemmaIndexView& sview = *snap_->lemma_index();
  EXPECT_EQ(sview.num_postings(), index_->num_postings());
  // Probe with every entity lemma plus noise strings; ranked ids, ords
  // and double scores must match bit for bit.
  for (EntityId e = 0; e < mem().num_entities(); e += 5) {
    for (int32_t i = 0; i < mem().NumEntityLemmas(e); ++i) {
      std::string text(mem().EntityLemma(e, i));
      auto a = index_->ProbeEntities(text, 8);
      auto b = sview.ProbeEntities(text, 8);
      ASSERT_EQ(a.size(), b.size()) << text;
      for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].id, b[j].id) << text;
        EXPECT_EQ(a[j].lemma_ord, b[j].lemma_ord) << text;
        EXPECT_EQ(a[j].score, b[j].score) << text;
      }
    }
  }
  for (const char* text :
       {"einstein", "the club of", "xyzzy unseen tokens", ""}) {
    auto a = index_->ProbeTypes(text, 16);
    auto b = sview.ProbeTypes(text, 16);
    ASSERT_EQ(a.size(), b.size()) << text;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].score, b[j].score);
    }
  }
}

TEST_F(SnapshotTest, VocabularyCopyIdentical) {
  const Vocabulary& original = *index_->vocabulary();
  Vocabulary copy = snap_->lemma_index()->CopyVocabulary();
  ASSERT_EQ(copy.size(), original.size());
  EXPECT_EQ(copy.num_documents(), original.num_documents());
  for (TokenId t = 0; t < original.size(); ++t) {
    EXPECT_EQ(copy.TokenText(t), original.TokenText(t));
    EXPECT_EQ(copy.DocumentFrequency(t), original.DocumentFrequency(t));
    EXPECT_EQ(copy.Idf(t), original.Idf(t));
    EXPECT_EQ(copy.Lookup(original.TokenText(t)), t);
  }
  EXPECT_EQ(snap_->lemma_index()->mutable_vocabulary(), nullptr);
}

TEST_F(SnapshotTest, ResnapshotFromViewIsByteIdentical) {
  // The writer consumes any CatalogView; serializing the mmap'd view
  // again must reproduce the catalog section bit for bit (losslessness).
  std::vector<uint8_t> from_memory, from_view;
  SnapshotBuilder a;
  a.SetCatalog(&mem());
  WEBTAB_CHECK_OK(a.WriteTo(&from_memory));
  SnapshotBuilder b;
  b.SetCatalog(&view());
  WEBTAB_CHECK_OK(b.WriteTo(&from_view));
  EXPECT_EQ(from_memory, from_view);
}

TEST_F(SnapshotTest, SaveCatalogFromViewMatchesText) {
  std::stringstream from_memory, from_view;
  WEBTAB_CHECK_OK(SaveCatalog(mem(), from_memory));
  WEBTAB_CHECK_OK(SaveCatalog(view(), from_view));
  EXPECT_EQ(from_memory.str(), from_view.str());
}

// --- Rejection tests ------------------------------------------------------

class SnapshotRejectionTest : public ::testing::Test {
 protected:
  SnapshotRejectionTest() {
    SnapshotBuilder builder;
    builder.SetCatalog(&SharedWorld().catalog);
    WEBTAB_CHECK_OK(builder.WriteTo(&bytes_));
  }

  Status OpenBytes(const std::string& name,
                   const std::vector<uint8_t>& bytes) {
    std::string path = TempPath(name);
    WriteBytes(path, bytes);
    Result<Snapshot> result = Snapshot::Open(path);
    std::remove(path.c_str());
    return result.ok() ? Status::Ok() : result.status();
  }

  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotRejectionTest, AcceptsIntactFile) {
  EXPECT_TRUE(OpenBytes("intact.bin", bytes_).ok());
}

TEST_F(SnapshotRejectionTest, RejectsMissingFile) {
  Result<Snapshot> result = Snapshot::Open(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotRejectionTest, RejectsBadMagic) {
  std::vector<uint8_t> corrupt = bytes_;
  corrupt[0] = 'X';
  Status s = OpenBytes("bad_magic.bin", corrupt);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("magic"), std::string::npos);
}

TEST_F(SnapshotRejectionTest, RejectsWrongVersion) {
  std::vector<uint8_t> corrupt = bytes_;
  corrupt[8] = 99;  // FileHeader.version low byte.
  Status s = OpenBytes("bad_version.bin", corrupt);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST_F(SnapshotRejectionTest, RejectsTruncation) {
  std::vector<uint8_t> corrupt = bytes_;
  corrupt.resize(corrupt.size() / 2);
  Status s = OpenBytes("truncated.bin", corrupt);
  EXPECT_EQ(s.code(), StatusCode::kParseError);

  std::vector<uint8_t> tiny(bytes_.begin(), bytes_.begin() + 16);
  EXPECT_EQ(OpenBytes("tiny.bin", tiny).code(), StatusCode::kParseError);
}

TEST_F(SnapshotRejectionTest, RejectsChecksumMismatch) {
  std::vector<uint8_t> corrupt = bytes_;
  corrupt[corrupt.size() / 2] ^= 0xFF;  // Flip payload bits.
  Status s = OpenBytes("bitflip.bin", corrupt);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("checksum"), std::string::npos);
}

TEST_F(SnapshotRejectionTest, ChecksumVerifyCanBeSkipped) {
  // With verification off, a payload flip deep inside a string arena is
  // not caught by structure checks (it changes characters, not offsets):
  // the caller owns that trade.
  Snapshot::OpenOptions options;
  options.verify_checksum = false;
  std::string path = TempPath("noverify.bin");
  WriteBytes(path, bytes_);
  Result<Snapshot> result = Snapshot::Open(path, options);
  EXPECT_TRUE(result.ok());
  std::remove(path.c_str());
}

// --- Hostile-file (OpenValidated) tests -----------------------------------
//
// A hostile snapshot is not corrupted in transit — the checksum is
// valid — but encodes data that violates invariants the accessors rely
// on. Plain Open accepts such files; OpenValidated must reject them.

class SnapshotHostileTest : public ::testing::Test {
 protected:
  SnapshotHostileTest() : index_(&SharedWorld().catalog) {
    SnapshotBuilder builder;
    builder.SetCatalog(&SharedWorld().catalog).SetLemmaIndex(&index_);
    WEBTAB_CHECK_OK(builder.WriteTo(&bytes_));
  }

  /// Writes `bytes`, opens it both ways, and asserts the hostile gap:
  /// plain Open accepts, OpenValidated rejects mentioning `what`.
  void ExpectValidatedRejects(const std::string& name,
                              const std::vector<uint8_t>& bytes,
                              const std::string& what) {
    std::string path = TempPath(name);
    WriteBytes(path, bytes);
    EXPECT_TRUE(Snapshot::Open(path).ok())
        << "mutation should pass plain open";
    Result<Snapshot> validated = Snapshot::OpenValidated(path);
    ASSERT_FALSE(validated.ok());
    EXPECT_EQ(validated.status().code(), StatusCode::kParseError);
    EXPECT_NE(validated.status().message().find(what), std::string::npos)
        << validated.status().ToString();
    std::remove(path.c_str());
  }

  LemmaIndex index_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotHostileTest, OpenValidatedAcceptsIntactFile) {
  std::string path = TempPath("valid_intact.bin");
  WriteBytes(path, bytes_);
  Result<Snapshot> snap = Snapshot::OpenValidated(path);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  std::remove(path.c_str());
}

TEST_F(SnapshotHostileTest, RejectsUnsortedNameIndex) {
  // Swap the first two entries of the sorted-by-name type index; the
  // binary-searched FindTypeByName would silently misanswer.
  std::vector<uint8_t> hostile = bytes_;
  uint64_t section = SectionOffsetOf(hostile, storage::kCatalogSection);
  auto cat = ReadPod<storage::CatalogHeader>(hostile, section);
  ASSERT_GE(cat.types_by_name.count, 2u);
  uint64_t array = section + cat.types_by_name.offset;
  int32_t a = ReadPod<int32_t>(hostile, array);
  int32_t b = ReadPod<int32_t>(hostile, array + sizeof(int32_t));
  ASSERT_NE(SharedWorld().catalog.TypeName(a),
            SharedWorld().catalog.TypeName(b));
  std::memcpy(hostile.data() + array, &b, sizeof(b));
  std::memcpy(hostile.data() + array + sizeof(int32_t), &a, sizeof(a));
  FixChecksum(&hostile);
  ExpectValidatedRejects("unsorted_names.bin", hostile, "unsorted");
}

TEST_F(SnapshotHostileTest, RejectsLemmaOrdinalOutOfRange) {
  // A posting whose lemma_ord points past its entity's lemma list would
  // read a neighboring entity's lemma bytes (or past the arena row) when
  // features fetch the matched lemma.
  std::vector<uint8_t> hostile = bytes_;
  uint64_t section = SectionOffsetOf(hostile, storage::kLemmaIndexSection);
  ASSERT_NE(section, 0u);
  auto lemma = ReadPod<storage::LemmaIndexHeader>(hostile, section);
  ASSERT_GE(lemma.entity_postings.values.count, 1u);
  uint64_t posting = section + lemma.entity_postings.values.offset;
  int32_t huge = 1 << 20;
  std::memcpy(hostile.data() + posting + offsetof(LemmaPosting, lemma_ord),
              &huge, sizeof(huge));
  FixChecksum(&hostile);
  ExpectValidatedRejects("bad_lemma_ord.bin", hostile, "ordinal");
}

TEST_F(SnapshotHostileTest, RejectsUnmirroredParentEdge) {
  // Replace a type's first parent edge with a self-loop. Ranges stay
  // valid (plain Open accepts) but the children rows no longer mirror
  // the parent rows.
  std::vector<uint8_t> hostile = bytes_;
  uint64_t section = SectionOffsetOf(hostile, storage::kCatalogSection);
  auto cat = ReadPod<storage::CatalogHeader>(hostile, section);
  // Find the first type with a parent via the CSR row ends.
  uint64_t ends = section + cat.type_parents.row_ends.offset;
  int32_t victim = -1;
  uint64_t prev = 0;
  for (int32_t t = 0; t < cat.num_types; ++t) {
    uint64_t end = ReadPod<uint64_t>(hostile, ends + t * sizeof(uint64_t));
    if (end > prev) {
      victim = t;
      break;
    }
    prev = end;
  }
  ASSERT_NE(victim, -1);
  uint64_t values = section + cat.type_parents.values.offset;
  std::memcpy(hostile.data() + values + prev * sizeof(int32_t), &victim,
              sizeof(victim));
  FixChecksum(&hostile);
  ExpectValidatedRejects("self_parent.bin", hostile, "mirror");
}

/// A catalog view reporting a consistent (mirrored) type cycle:
/// parents(root) = [accomplice] on top of the base's accomplice->root
/// edge. Serialized through SnapshotBuilder it yields a checksum-valid
/// snapshot whose type graph is not a DAG.
class CycledCatalog : public CatalogView {
 public:
  explicit CycledCatalog(const CatalogView* base) : base_(base) {
    accomplice_ = base->TypeChildren(base->root_type()).front();
    fake_root_parents_ = {accomplice_};
    auto kids = base->TypeChildren(accomplice_);
    fake_accomplice_children_.assign(kids.begin(), kids.end());
    fake_accomplice_children_.push_back(base->root_type());
  }

  int32_t num_types() const override { return base_->num_types(); }
  int32_t num_entities() const override { return base_->num_entities(); }
  int32_t num_relations() const override { return base_->num_relations(); }
  int64_t num_tuples() const override { return base_->num_tuples(); }
  TypeId root_type() const override { return base_->root_type(); }
  std::string_view TypeName(TypeId t) const override {
    return base_->TypeName(t);
  }
  int32_t NumTypeLemmas(TypeId t) const override {
    return base_->NumTypeLemmas(t);
  }
  std::string_view TypeLemma(TypeId t, int32_t i) const override {
    return base_->TypeLemma(t, i);
  }
  std::span<const TypeId> TypeParents(TypeId t) const override {
    if (t == base_->root_type()) return fake_root_parents_;
    return base_->TypeParents(t);
  }
  std::span<const TypeId> TypeChildren(TypeId t) const override {
    if (t == accomplice_) return fake_accomplice_children_;
    return base_->TypeChildren(t);
  }
  std::span<const EntityId> TypeDirectEntities(TypeId t) const override {
    return base_->TypeDirectEntities(t);
  }
  std::string_view EntityName(EntityId e) const override {
    return base_->EntityName(e);
  }
  int32_t NumEntityLemmas(EntityId e) const override {
    return base_->NumEntityLemmas(e);
  }
  std::string_view EntityLemma(EntityId e, int32_t i) const override {
    return base_->EntityLemma(e, i);
  }
  std::span<const TypeId> EntityDirectTypes(EntityId e) const override {
    return base_->EntityDirectTypes(e);
  }
  std::string_view RelationName(RelationId b) const override {
    return base_->RelationName(b);
  }
  TypeId RelationSubjectType(RelationId b) const override {
    return base_->RelationSubjectType(b);
  }
  TypeId RelationObjectType(RelationId b) const override {
    return base_->RelationObjectType(b);
  }
  RelationCardinality RelationCardinalityOf(RelationId b) const override {
    return base_->RelationCardinalityOf(b);
  }
  std::span<const EntityPair> RelationTuples(RelationId b) const override {
    return base_->RelationTuples(b);
  }
  int64_t DistinctSubjects(RelationId b) const override {
    return base_->DistinctSubjects(b);
  }
  int64_t DistinctObjects(RelationId b) const override {
    return base_->DistinctObjects(b);
  }
  TypeId FindTypeByName(std::string_view name) const override {
    return base_->FindTypeByName(name);
  }
  EntityId FindEntityByName(std::string_view name) const override {
    return base_->FindEntityByName(name);
  }
  RelationId FindRelationByName(std::string_view name) const override {
    return base_->FindRelationByName(name);
  }
  bool HasTuple(RelationId b, EntityId e1, EntityId e2) const override {
    return base_->HasTuple(b, e1, e2);
  }
  std::span<const EntityId> ObjectsOf(RelationId b,
                                      EntityId e1) const override {
    return base_->ObjectsOf(b, e1);
  }
  std::span<const EntityId> SubjectsOf(RelationId b,
                                       EntityId e2) const override {
    return base_->SubjectsOf(b, e2);
  }
  std::vector<std::pair<RelationId, bool>> RelationsBetween(
      EntityId e1, EntityId e2) const override {
    return base_->RelationsBetween(e1, e2);
  }

 private:
  const CatalogView* base_;
  TypeId accomplice_;
  std::vector<TypeId> fake_root_parents_;
  std::vector<TypeId> fake_accomplice_children_;
};

TEST_F(SnapshotHostileTest, RejectsTypeCycle) {
  CycledCatalog cycled(&SharedWorld().catalog);
  SnapshotBuilder builder;
  builder.SetCatalog(&cycled);
  std::vector<uint8_t> hostile;
  WEBTAB_CHECK_OK(builder.WriteTo(&hostile));
  ExpectValidatedRejects("type_cycle.bin", hostile, "cycle");
}

// --- Hostile corpus postings ----------------------------------------------

TEST(SnapshotCorpusHostileTest, RejectsPostingsOutOfTableOrder) {
  // The search kernel's galloping cursors require table-sorted postings
  // (the CorpusView ordering contract); a hostile file violating it
  // would silently skip or double-count evidence. Plain Open accepts
  // the file; OpenValidated must reject it.
  testing_util::Figure1World w = testing_util::MakeFigure1World();
  // Two tables, both with a book-typed column: the book type's postings
  // row spans both tables, giving adjacent refs to swap out of order.
  std::vector<AnnotatedTable> corpus;
  for (int i = 0; i < 2; ++i) {
    AnnotatedTable at;
    at.table = testing_util::MakeFigure1Table();
    at.annotation = TableAnnotation::Empty(2, 2);
    at.annotation.column_types[0] = w.book;
    at.annotation.column_types[1] = w.person;
    corpus.push_back(at);
  }
  CorpusIndex corpus_index(std::move(corpus), nullptr);
  LemmaIndex lemma_index(&w.catalog);
  SnapshotBuilder builder;
  builder.SetCatalog(&w.catalog)
      .SetLemmaIndex(&lemma_index)
      .SetCorpus(&corpus_index);
  std::vector<uint8_t> hostile;
  WEBTAB_CHECK_OK(builder.WriteTo(&hostile));

  uint64_t section = SectionOffsetOf(hostile, storage::kCorpusSection);
  ASSERT_NE(section, 0u);
  auto corpus_header = ReadPod<storage::CorpusHeader>(hostile, section);
  ASSERT_GE(corpus_header.type_postings.values.count, 2u);
  uint64_t values = section + corpus_header.type_postings.values.offset;
  ColumnRef a = ReadPod<ColumnRef>(hostile, values);
  ColumnRef b = ReadPod<ColumnRef>(hostile, values + sizeof(ColumnRef));
  ASSERT_NE(a.table, b.table);  // One type's row spanning both tables.
  std::memcpy(hostile.data() + values, &b, sizeof(b));
  std::memcpy(hostile.data() + values + sizeof(ColumnRef), &a, sizeof(a));
  FixChecksum(&hostile);

  std::string path = TempPath("corpus_unsorted.bin");
  WriteBytes(path, hostile);
  EXPECT_TRUE(Snapshot::Open(path).ok())
      << "mutation should pass plain open";
  Result<Snapshot> validated = Snapshot::OpenValidated(path);
  ASSERT_FALSE(validated.ok());
  EXPECT_EQ(validated.status().code(), StatusCode::kParseError);
  EXPECT_NE(validated.status().message().find("table order"),
            std::string::npos)
      << validated.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webtab
