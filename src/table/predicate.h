// Row predicates: the WHERE clauses of statistical queries.
//
// A Predicate is a small expression tree over attribute comparisons,
// combined with AND / OR / NOT. It backs both the interactive statistical
// database (querydb) and the private aggregate queries (pir), including the
// paper's Section 3 example:
//   height < 165 AND weight > 105.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "table/data_table.h"

namespace tripriv {

/// Comparison operator of a leaf predicate.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// Immutable predicate expression tree.
class Predicate {
 public:
  /// Predicate that accepts every row.
  static Predicate True();
  /// Leaf: `attribute <op> literal`.
  static Predicate Compare(std::string attribute, CompareOp op, Value literal);
  static Predicate And(Predicate lhs, Predicate rhs);
  static Predicate Or(Predicate lhs, Predicate rhs);
  static Predicate Not(Predicate inner);

  /// Indices of all rows of `table` satisfying the predicate, ascending.
  ///
  /// Null cells compare false under every operator except kNe, mirroring
  /// SQL's null semantics closely enough for the statistical-query
  /// workloads here. An integer column compares exactly with an integer
  /// literal; every other numeric pair compares as double.
  ///
  /// AND and OR short-circuit left to right, and a row fails only at a
  /// leaf it reaches: with NotFound when the attribute does not exist, or
  /// with InvalidArgument when a non-null cell and the literal are
  /// ill-typed (e.g. `<` between a number and a string). The error
  /// returned is the one the first failing row hits at its leftmost
  /// failing leaf.
  ///
  /// The tree is bound to the table's schema once per call (each leaf
  /// resolved to a column and a comparison kind) and evaluated 64 rows at a
  /// time into match masks combined by AND / OR / NOT.
  Result<std::vector<size_t>> MatchingRows(const DataTable& table) const;

  /// Attribute names referenced by the predicate (with duplicates), in
  /// left-to-right order. The query-auditing machinery uses this to know
  /// which attributes a user has probed.
  std::vector<std::string> ReferencedAttributes() const;

  /// SQL-ish rendering, e.g. "(height < 165 AND weight > 105)".
  std::string ToString() const;

 private:
  enum class Kind { kTrue, kCompare, kAnd, kOr, kNot };

  Kind kind_ = Kind::kTrue;
  // Leaf payload.
  std::string attribute_;
  CompareOp op_ = CompareOp::kEq;
  Value literal_;
  // Children (shared so Predicate stays copyable).
  std::shared_ptr<const Predicate> lhs_;
  std::shared_ptr<const Predicate> rhs_;

  void CollectAttributes(std::vector<std::string>* out) const;

  /// The tree bound to one table's schema (predicate.cc).
  class Bound;
};

}  // namespace tripriv

