#include "table/predicate.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string_view>

namespace tripriv {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Predicate Predicate::True() { return Predicate(); }

Predicate Predicate::Compare(std::string attribute, CompareOp op, Value literal) {
  Predicate p;
  p.kind_ = Kind::kCompare;
  p.attribute_ = std::move(attribute);
  p.op_ = op;
  p.literal_ = std::move(literal);
  return p;
}

Predicate Predicate::And(Predicate lhs, Predicate rhs) {
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.lhs_ = std::make_shared<const Predicate>(std::move(lhs));
  p.rhs_ = std::make_shared<const Predicate>(std::move(rhs));
  return p;
}

Predicate Predicate::Or(Predicate lhs, Predicate rhs) {
  Predicate p;
  p.kind_ = Kind::kOr;
  p.lhs_ = std::make_shared<const Predicate>(std::move(lhs));
  p.rhs_ = std::make_shared<const Predicate>(std::move(rhs));
  return p;
}

Predicate Predicate::Not(Predicate inner) {
  Predicate p;
  p.kind_ = Kind::kNot;
  p.lhs_ = std::make_shared<const Predicate>(std::move(inner));
  return p;
}

namespace {

/// Rows per evaluation block: one bit each of a uint64_t match mask.
constexpr size_t kBlockRows = 64;

/// Calls `scan` with `op` as a function object, so a scan's per-row loop
/// compares without switching on the operator.
template <typename Scan>
uint64_t WithOp(CompareOp op, Scan scan) {
  switch (op) {
    case CompareOp::kEq:
      return scan(std::equal_to<>());
    case CompareOp::kNe:
      return scan(std::not_equal_to<>());
    case CompareOp::kLt:
      return scan(std::less<>());
    case CompareOp::kLe:
      return scan(std::less_equal<>());
    case CompareOp::kGt:
      return scan(std::greater<>());
    case CompareOp::kGe:
      return scan(std::greater_equal<>());
  }
  return 0;
}

}  // namespace

/// Nodes in preorder, so a node's lhs is the next node. Each leaf carries
/// its column index and how it compares, decided once from the column's
/// type and the literal's. DataTable validates every cell against its
/// column type, so the schema decides which cells a leaf can meet.
class Predicate::Bound {
 public:
  Bound(const Predicate& root, const Schema& schema) { Add(root, schema); }

  /// Match mask of rows [first, first + count), count <= kBlockRows: bit i
  /// is row first + i. Fails with the error of the block's first failing
  /// row.
  Result<uint64_t> EvalBlock(const DataTable& table, size_t first,
                             size_t count) {
    for (size_t i = 0; i < count; ++i) cells_[i] = table.row(first + i).data();
    count_ = count;
    error_row_ = kBlockRows;
    error_ = nullptr;
    const uint64_t rows =
        count == kBlockRows ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
    const uint64_t mask = Eval(0, rows) & rows;
    if (error_ != nullptr) return *error_;
    return mask;
  }

 private:
  enum class Leaf {
    kInt,       ///< integer column, integer literal: exact int64_t compare
    kReal,      ///< any other numeric pair: compare as double
    kString,    ///< categorical column, string literal
    kMismatch,  ///< ill-typed: a reached non-null cell fails
    kMissing,   ///< unknown attribute: every reached row fails
  };

  struct Node {
    Kind kind = Kind::kTrue;
    size_t rhs = 0;  // index of the right child (kAnd / kOr)
    // Leaf payload.
    Leaf leaf = Leaf::kMissing;
    CompareOp op = CompareOp::kEq;
    size_t col = 0;
    int64_t int_literal = 0;
    double real_literal = 0.0;
    std::string_view string_literal;
    Status error;  // what a reached row fails with (kMismatch / kMissing)
  };

  void Add(const Predicate& p, const Schema& schema) {
    const size_t at = nodes_.size();
    nodes_.emplace_back();
    nodes_[at].kind = p.kind_;
    switch (p.kind_) {
      case Kind::kTrue:
        return;
      case Kind::kCompare:
        BindLeaf(p, schema, &nodes_[at]);
        return;
      case Kind::kAnd:
      case Kind::kOr:
        Add(*p.lhs_, schema);
        nodes_[at].rhs = nodes_.size();
        Add(*p.rhs_, schema);
        return;
      case Kind::kNot:
        Add(*p.lhs_, schema);
        return;
    }
  }

  static void BindLeaf(const Predicate& p, const Schema& schema, Node* node) {
    node->op = p.op_;
    Result<size_t> col = schema.IndexOf(p.attribute_);
    if (!col.ok()) {
      node->error = col.status();
      return;
    }
    node->col = *col;
    const Value& literal = p.literal_;
    switch (schema.attribute(*col).type) {
      case AttributeType::kInteger:
        if (literal.is_int()) {
          node->leaf = Leaf::kInt;
          node->int_literal = literal.AsInt();
          return;
        }
        [[fallthrough]];
      case AttributeType::kReal:
        if (literal.is_numeric()) {
          node->leaf = Leaf::kReal;
          node->real_literal = literal.ToDouble();
          return;
        }
        break;
      case AttributeType::kCategorical:
        if (literal.is_string()) {
          node->leaf = Leaf::kString;
          node->string_literal = literal.AsString();
          return;
        }
        break;
    }
    node->leaf = Leaf::kMismatch;
    // Neither operand may enter the message: the cell is record-level
    // (and echoing the literal would confirm what it was compared against).
    node->error = Status::InvalidArgument("type mismatch in comparison");
  }

  /// Mask of the node's result; only bits in `reach`, the rows that
  /// evaluate this node, are meaningful.
  uint64_t Eval(size_t at, uint64_t reach) {
    if (reach == 0) return 0;
    const Node& node = nodes_[at];
    switch (node.kind) {
      case Kind::kTrue:
        return ~uint64_t{0};
      case Kind::kCompare:
        return EvalLeaf(node, reach);
      case Kind::kAnd: {
        const uint64_t lhs = Eval(at + 1, reach);
        return lhs & Eval(node.rhs, reach & lhs);
      }
      case Kind::kOr: {
        const uint64_t lhs = Eval(at + 1, reach);
        return lhs | Eval(node.rhs, reach & ~lhs);
      }
      case Kind::kNot:
        return ~Eval(at + 1, reach);
    }
    return 0;
  }

  uint64_t EvalLeaf(const Node& node, uint64_t reach) {
    switch (node.leaf) {
      case Leaf::kInt:
        return WithOp(node.op, [this, &node](auto holds) {
          return Scan(node, [&](const Value& cell) {
            return holds(cell.AsInt(), node.int_literal);
          });
        });
      case Leaf::kReal:
        return WithOp(node.op, [this, &node](auto holds) {
          return Scan(node, [&](const Value& cell) {
            return holds(cell.ToDouble(), node.real_literal);
          });
        });
      case Leaf::kString:
        return WithOp(node.op, [this, &node](auto holds) {
          return Scan(node, [&](const Value& cell) {
            return holds(std::string_view(cell.AsString()),
                         node.string_literal);
          });
        });
      case Leaf::kMismatch: {
        uint64_t nulls = 0;
        for (size_t i = 0; i < count_; ++i) {
          nulls |= uint64_t{cells_[i][node.col].is_null()} << i;
        }
        Fail(node, reach & ~nulls);
        return node.op == CompareOp::kNe ? nulls : 0;
      }
      case Leaf::kMissing:
        Fail(node, reach);
        return 0;
    }
    return 0;
  }

  /// Bit i set where row i's cell satisfies `hit`. A null cell matches
  /// nothing except explicit inequality to a value.
  template <typename Hit>
  uint64_t Scan(const Node& node, Hit hit) const {
    const bool null_hit = node.op == CompareOp::kNe;
    uint64_t mask = 0;
    for (size_t i = 0; i < count_; ++i) {
      const Value& cell = cells_[i][node.col];
      mask |= uint64_t{cell.is_null() ? null_hit : hit(cell)} << i;
    }
    return mask;
  }

  /// Records that `node` fails the rows in `failed`. Leaves run in
  /// evaluation order, so on a tie the earlier leaf, the one the row
  /// reached first, keeps the error.
  void Fail(const Node& node, uint64_t failed) {
    if (failed == 0) return;
    const auto row = static_cast<size_t>(std::countr_zero(failed));
    if (row < error_row_) {
      error_row_ = row;
      error_ = &node.error;
    }
  }

  std::vector<Node> nodes_;
  // The block being evaluated: each row's cells, and its first failure.
  const Value* cells_[kBlockRows] = {};
  size_t count_ = 0;
  size_t error_row_ = kBlockRows;
  const Status* error_ = nullptr;
};

Result<std::vector<size_t>> Predicate::MatchingRows(
    const DataTable& table) const {
  Bound bound(*this, table.schema());
  std::vector<size_t> out;
  const size_t n = table.num_rows();
  for (size_t first = 0; first < n; first += kBlockRows) {
    TRIPRIV_ASSIGN_OR_RETURN(
        uint64_t mask,
        bound.EvalBlock(table, first, std::min(kBlockRows, n - first)));
    for (; mask != 0; mask &= mask - 1) {
      out.push_back(first + static_cast<size_t>(std::countr_zero(mask)));
    }
  }
  return out;
}

void Predicate::CollectAttributes(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kTrue:
      return;
    case Kind::kCompare:
      out->push_back(attribute_);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      lhs_->CollectAttributes(out);
      rhs_->CollectAttributes(out);
      return;
    case Kind::kNot:
      lhs_->CollectAttributes(out);
      return;
  }
}

std::vector<std::string> Predicate::ReferencedAttributes() const {
  std::vector<std::string> out;
  CollectAttributes(&out);
  return out;
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCompare:
      return attribute_ + " " + CompareOpToString(op_) + " " +
             (literal_.is_string() ? "'" + literal_.AsString() + "'"
                                   : literal_.ToDisplayString());
    case Kind::kAnd:
      return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
    case Kind::kOr:
      return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
    case Kind::kNot:
      return "(NOT " + lhs_->ToString() + ")";
  }
  return "?";
}

}  // namespace tripriv
