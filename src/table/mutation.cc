#include "table/mutation.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/checksum.h"

namespace tripriv {
namespace {

void MixU64(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) Fnv1aMix(h, static_cast<uint8_t>(v >> (8 * i)));
}

/// Type-tagged cell digest: the tag separates Value(1) from Value(1.0) and
/// "" from null, so two tables hash equal iff they compare equal.
void MixValue(uint64_t* h, const Value& v) {
  if (v.is_null()) {
    Fnv1aMix(h, 0);
  } else if (v.is_int()) {
    Fnv1aMix(h, 1);
    MixU64(h, static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_real()) {
    Fnv1aMix(h, 2);
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(double));
    const double d = v.AsReal();
    __builtin_memcpy(&bits, &d, sizeof(bits));
    MixU64(h, bits);
  } else {
    Fnv1aMix(h, 3);
    const std::string& s = v.AsString();
    MixU64(h, s.size());
    for (char c : s) Fnv1aMix(h, static_cast<uint8_t>(c));
  }
}

/// Row of a uid the batch has not resolved, or deleted in the batch.
constexpr size_t kNoRow = SIZE_MAX;

/// Open-addressing map from the few uids one batch names to their current
/// row. Sized at construction for `max_uids` claims (load at most 1/2), so
/// the pass over every uid of the table costs one probe each, mostly into
/// an empty slot.
class UidRows {
 public:
  explicit UidRows(size_t max_uids) {
    size_t capacity = 8;
    while (capacity < 2 * max_uids) capacity *= 2;
    slots_.resize(capacity);
    mask_ = capacity - 1;
  }

  /// The row of `uid`; claims a slot (row kNoRow) on first sight.
  size_t* Claim(uint64_t uid) {
    Slot& slot = SlotOf(uid);
    if (!slot.used) slot = {uid, kNoRow, true};
    return &slot.row;
  }

  /// The row of `uid`, or nullptr when it was never claimed.
  size_t* Find(uint64_t uid) {
    Slot& slot = SlotOf(uid);
    return slot.used ? &slot.row : nullptr;
  }

 private:
  struct Slot {
    uint64_t uid = 0;
    size_t row = kNoRow;
    bool used = false;
  };

  /// The slot holding `uid`, or the empty slot its probe ends at.
  Slot& SlotOf(uint64_t uid) {
    const uint64_t h = uid * 0x9E3779B97F4A7C15ull;
    size_t s = static_cast<size_t>(h ^ (h >> 32)) & mask_;
    while (slots_[s].used && slots_[s].uid != uid) s = (s + 1) & mask_;
    return slots_[s];
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

}  // namespace

const char* MutationKindName(MutationKind kind) {
  switch (kind) {
    case MutationKind::kInsert:
      return "insert";
    case MutationKind::kDelete:
      return "delete";
    case MutationKind::kUpdate:
      return "update";
  }
  return "unknown";
}

RowMutation RowMutation::Insert(std::vector<Value> row) {
  RowMutation m;
  m.kind = MutationKind::kInsert;
  m.row = std::move(row);
  return m;
}

RowMutation RowMutation::Delete(uint64_t uid) {
  RowMutation m;
  m.kind = MutationKind::kDelete;
  m.uid = uid;
  return m;
}

RowMutation RowMutation::Update(uint64_t uid, std::vector<Value> row) {
  RowMutation m;
  m.kind = MutationKind::kUpdate;
  m.uid = uid;
  m.row = std::move(row);
  return m;
}

Result<MutationApplyResult> ApplyMutations(const std::vector<RowMutation>& batch,
                                           DataTable* base,
                                           std::vector<uint64_t>* uids,
                                           uint64_t* next_uid) {
  TRIPRIV_CHECK(base != nullptr);
  TRIPRIV_CHECK(uids != nullptr);
  TRIPRIV_CHECK(next_uid != nullptr);
  if (uids->size() != base->num_rows()) {
    return Status::InvalidArgument("uid vector does not match table rows");
  }

  // Resolve only the uids the batch names, in one pass over `uids` (the
  // last row holding a uid wins). Rows keep their index until the batch
  // ends, so an update or delete of a uid inserted earlier in the batch
  // resolves through the same map.
  UidRows rows_of(batch.size());
  for (const RowMutation& m : batch) {
    if (m.kind != MutationKind::kInsert) rows_of.Claim(m.uid);
  }
  for (size_t r = 0; r < uids->size(); ++r) {
    if (size_t* row = rows_of.Find((*uids)[r])) *row = r;
  }

  const size_t arity = base->num_columns();
  MutationApplyResult result;
  std::vector<size_t> erased;
  for (const RowMutation& m : batch) {
    switch (m.kind) {
      case MutationKind::kInsert: {
        if (m.row.size() != arity) {
          return Status::InvalidArgument("mutation row arity does not match schema");
        }
        TRIPRIV_RETURN_IF_ERROR(base->AppendRow(m.row));
        const uint64_t uid = (*next_uid)++;
        *rows_of.Claim(uid) = uids->size();
        uids->push_back(uid);
        result.dirty_uids.push_back(uid);
        ++result.inserts;
        break;
      }
      case MutationKind::kDelete: {
        size_t* row = rows_of.Find(m.uid);
        if (row == nullptr || *row == kNoRow) {
          return Status::NotFound("delete of unknown uid");
        }
        erased.push_back(*row);
        *row = kNoRow;
        result.dirty_uids.push_back(m.uid);
        ++result.deletes;
        break;
      }
      case MutationKind::kUpdate: {
        const size_t* row = rows_of.Find(m.uid);
        if (row == nullptr || *row == kNoRow) {
          return Status::NotFound("update of unknown uid");
        }
        if (m.row.size() != arity) {
          return Status::InvalidArgument("mutation row arity does not match schema");
        }
        for (size_t c = 0; c < arity; ++c) {
          TRIPRIV_RETURN_IF_ERROR(base->Set(*row, c, m.row[c]));
        }
        result.dirty_uids.push_back(m.uid);
        ++result.updates;
        break;
      }
    }
  }

  // One stable compaction drops every deleted row and its uid.
  if (!erased.empty()) {
    std::sort(erased.begin(), erased.end());
    base->EraseRows(erased);
    size_t out = erased[0];
    size_t next = 0;
    for (size_t r = out; r < uids->size(); ++r) {
      if (next < erased.size() && erased[next] == r) {
        ++next;
        continue;
      }
      (*uids)[out++] = (*uids)[r];
    }
    uids->resize(out);
  }
  return result;
}

uint64_t MutationBatchFingerprint(const std::vector<RowMutation>& batch) {
  uint64_t h = kFnv1aOffset;
  MixU64(&h, batch.size());
  for (const RowMutation& m : batch) {
    Fnv1aMix(&h, static_cast<uint8_t>(m.kind));
    MixU64(&h, m.uid);
    MixU64(&h, m.row.size());
    for (const Value& v : m.row) MixValue(&h, v);
  }
  return h;
}

uint64_t TableChecksum(const DataTable& table) {
  uint64_t h = kFnv1aOffset;
  MixU64(&h, table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const std::string& name = table.schema().attribute(c).name;
    MixU64(&h, name.size());
    for (char ch : name) Fnv1aMix(&h, static_cast<uint8_t>(ch));
  }
  MixU64(&h, table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      MixValue(&h, table.at(r, c));
    }
  }
  return h;
}

}  // namespace tripriv
