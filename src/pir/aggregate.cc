#include "pir/aggregate.h"

#include <cmath>

namespace tripriv {
namespace {

/// Number of cells along one axis.
size_t AxisCells(const GridAxis& axis) {
  return static_cast<size_t>((axis.hi - axis.lo) / axis.step) + 1;
}

}  // namespace

Result<PrivateAggregateServer> PrivateAggregateServer::Build(
    const DataTable& table, std::vector<GridAxis> axes) {
  if (axes.empty()) return Status::InvalidArgument("need >= 1 grid axis");
  size_t cells = 1;
  for (const auto& axis : axes) {
    if (axis.step < 1 || axis.hi < axis.lo) {
      return Status::InvalidArgument("invalid grid axis for " + axis.attribute);
    }
    TRIPRIV_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(axis.attribute));
    if (table.schema().attribute(col).type != AttributeType::kInteger) {
      return Status::InvalidArgument("grid attribute '" + axis.attribute +
                                     "' must be integer-typed");
    }
    cells *= AxisCells(axis);
    if (cells > (1u << 22)) {
      return Status::InvalidArgument("domain grid too large (> 4M cells)");
    }
  }

  PrivateAggregateServer server;
  server.axes_ = std::move(axes);
  server.counts_.assign(cells, 0);
  // Every numeric attribute gets precomputed per-cell sums.
  std::vector<size_t> sum_cols;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().attribute(c).type == AttributeType::kInteger) {
      server.sum_attributes_.push_back(table.schema().attribute(c).name);
      sum_cols.push_back(c);
    }
  }
  server.sums_.assign(server.sum_attributes_.size(),
                      std::vector<uint64_t>(cells, 0));

  for (size_t r = 0; r < table.num_rows(); ++r) {
    size_t cell = 0;
    for (const auto& axis : server.axes_) {
      TRIPRIV_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(axis.attribute));
      const Value& v = table.at(r, col);
      if (!v.is_int()) {
        return Status::InvalidArgument("null/non-integer grid cell at row " +
                                       std::to_string(r));
      }
      const int64_t x = v.AsInt();
      if (x < axis.lo || x > axis.hi) {
        // `x` is a cell value (record-level); name the public axis only.
        return Status::OutOfRange("value of '" + axis.attribute +
                                  "' outside the public domain");
      }
      cell = cell * AxisCells(axis) +
             static_cast<size_t>((x - axis.lo) / axis.step);
    }
    server.counts_[cell]++;
    for (size_t a = 0; a < sum_cols.size(); ++a) {
      const Value& v = table.at(r, sum_cols[a]);
      if (!v.is_int() || v.AsInt() < 0) {
        return Status::InvalidArgument(
            "aggregate attribute '" + server.sum_attributes_[a] +
            "' must be a non-negative integer");
      }
      server.sums_[a][cell] += static_cast<uint64_t>(v.AsInt());
    }
  }
  return server;
}

std::vector<int64_t> PrivateAggregateServer::CellRepresentative(
    size_t cell) const {
  TRIPRIV_CHECK_LT(cell, counts_.size());
  std::vector<int64_t> rep(axes_.size());
  for (size_t a = axes_.size(); a-- > 0;) {
    const size_t n = AxisCells(axes_[a]);
    rep[a] = axes_[a].lo + static_cast<int64_t>(cell % n) * axes_[a].step;
    cell /= n;
  }
  return rep;
}

Result<BigInt> PrivateAggregateServer::EncryptedCount(
    const PaillierPublicKey& pub,
    const std::vector<BigInt>& encrypted_selector) const {
  ++queries_served_;
  return PaillierFold(pub, encrypted_selector, counts_);
}

Result<BigInt> PrivateAggregateServer::EncryptedDpCount(
    const PaillierPublicKey& pub, const std::vector<BigInt>& encrypted_selector,
    double epsilon, Rng* rng) const {
  TRIPRIV_CHECK(rng != nullptr);
  if (epsilon <= 0.0) return Status::InvalidArgument("epsilon must be > 0");
  TRIPRIV_ASSIGN_OR_RETURN(BigInt enc_count,
                           EncryptedCount(pub, encrypted_selector));
  // Discretized Laplace(1/epsilon), encoded mod n: Enc(c) * g^noise.
  const double noise = rng->Laplace(0.0, 1.0 / epsilon);
  const auto rounded = static_cast<int64_t>(std::llround(noise));
  return PaillierAddPlain(pub, enc_count, BigInt(rounded));
}

Result<BigInt> PrivateAggregateServer::EncryptedSum(
    const PaillierPublicKey& pub, const std::vector<BigInt>& encrypted_selector,
    const std::string& attribute) const {
  for (size_t a = 0; a < sum_attributes_.size(); ++a) {
    if (sum_attributes_[a] == attribute) {
      ++queries_served_;
      return PaillierFold(pub, encrypted_selector, sums_[a]);
    }
  }
  return Status::NotFound("no precomputed sums for attribute '" + attribute +
                          "'");
}

Result<PrivateAggregateClient> PrivateAggregateClient::Create(
    size_t modulus_bits, uint64_t seed) {
  PrivateAggregateClient client;
  client.rng_ = Rng(seed);
  TRIPRIV_ASSIGN_OR_RETURN(client.keys_,
                           PaillierGenerateKeys(modulus_bits, &client.rng_));
  return client;
}

Result<std::vector<BigInt>> PrivateAggregateClient::MakeSelector(
    const PrivateAggregateServer& server, const Predicate& predicate) {
  // Evaluate the private predicate client-side, in one scan over a grid
  // table holding every cell's representative, then encrypt each cell's
  // selector bit in cell order.
  std::vector<Attribute> attrs;
  for (const auto& axis : server.axes()) {
    attrs.push_back(
        {axis.attribute, AttributeType::kInteger, AttributeRole::kNonConfidential});
  }
  DataTable grid{Schema(std::move(attrs))};
  for (size_t cell = 0; cell < server.num_cells(); ++cell) {
    std::vector<Value> row;
    for (int64_t v : server.CellRepresentative(cell)) row.push_back(Value(v));
    TRIPRIV_RETURN_IF_ERROR(grid.AppendRow(std::move(row)));
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto selected_cells, predicate.MatchingRows(grid));
  std::vector<BigInt> selector;
  selector.reserve(server.num_cells());
  auto next = selected_cells.begin();
  for (size_t cell = 0; cell < server.num_cells(); ++cell) {
    const bool selected = next != selected_cells.end() && *next == cell;
    if (selected) ++next;
    TRIPRIV_ASSIGN_OR_RETURN(
        BigInt c,
        PaillierEncrypt(keys_.pub, selected ? BigInt(1) : BigInt(), &rng_));
    selector.push_back(std::move(c));
  }
  return selector;
}

Result<uint64_t> PrivateAggregateClient::Count(
    const PrivateAggregateServer& server, const Predicate& predicate) {
  TRIPRIV_ASSIGN_OR_RETURN(auto selector, MakeSelector(server, predicate));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt enc,
                           server.EncryptedCount(keys_.pub, selector));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt count,
                           PaillierDecrypt(keys_.pub, keys_.priv, enc));
  return count.ToU64();
}

Result<uint64_t> PrivateAggregateClient::Sum(
    const PrivateAggregateServer& server, const std::string& attribute,
    const Predicate& predicate) {
  TRIPRIV_ASSIGN_OR_RETURN(auto selector, MakeSelector(server, predicate));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt enc,
                           server.EncryptedSum(keys_.pub, selector, attribute));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt sum,
                           PaillierDecrypt(keys_.pub, keys_.priv, enc));
  return sum.ToU64();
}

Result<int64_t> PrivateAggregateClient::DpCount(
    const PrivateAggregateServer& server, const Predicate& predicate,
    double epsilon, Rng* server_rng) {
  TRIPRIV_ASSIGN_OR_RETURN(auto selector, MakeSelector(server, predicate));
  TRIPRIV_ASSIGN_OR_RETURN(
      BigInt enc, server.EncryptedDpCount(keys_.pub, selector, epsilon,
                                          server_rng));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt noisy,
                           PaillierDecrypt(keys_.pub, keys_.priv, enc));
  // Values above n/2 encode negatives (count + noise < 0).
  const BigInt half = keys_.pub.n >> 1;
  if (noisy > half) {
    const BigInt negated = keys_.pub.n - noisy;
    auto v = negated.ToI64();
    if (!v.has_value()) return Status::Internal("DP count out of range");
    return -*v;
  }
  auto v = noisy.ToI64();
  if (!v.has_value()) return Status::Internal("DP count out of range");
  return *v;
}

Result<double> PrivateAggregateClient::Average(
    const PrivateAggregateServer& server, const std::string& attribute,
    const Predicate& predicate) {
  // One selector serves both folds (two server calls, same ciphertexts).
  TRIPRIV_ASSIGN_OR_RETURN(auto selector, MakeSelector(server, predicate));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt enc_count,
                           server.EncryptedCount(keys_.pub, selector));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt enc_sum,
                           server.EncryptedSum(keys_.pub, selector, attribute));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt count,
                           PaillierDecrypt(keys_.pub, keys_.priv, enc_count));
  TRIPRIV_ASSIGN_OR_RETURN(BigInt sum,
                           PaillierDecrypt(keys_.pub, keys_.priv, enc_sum));
  if (count.IsZero()) {
    return Status::FailedPrecondition("AVG over an empty selection");
  }
  return static_cast<double>(sum.ToU64()) / static_cast<double>(count.ToU64());
}

}  // namespace tripriv
