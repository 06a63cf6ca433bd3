#include "pir/cpir.h"

#include <cmath>

namespace tripriv {

Result<CpirServer> CpirServer::Create(std::vector<uint64_t> database) {
  if (database.empty()) return Status::InvalidArgument("empty database");
  CpirServer server;
  server.cols_ = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(database.size()))));
  server.rows_ = (database.size() + server.cols_ - 1) / server.cols_;
  server.database_ = std::move(database);
  return server;
}

Result<std::vector<BigInt>> CpirServer::Answer(
    const PaillierPublicKey& pub, const std::vector<BigInt>& encrypted_selector) {
  if (encrypted_selector.size() != rows_) {
    return Status::InvalidArgument("selector must have one ciphertext per row");
  }
  ++queries_served_;
  std::vector<BigInt> out;
  out.reserve(cols_);
  std::vector<uint64_t> column(rows_);
  for (size_t j = 0; j < cols_; ++j) {
    // Column j's entries weight the row selectors: Enc(M[target_row][j]).
    // A short last row has no cell in column j, so it weighs 0.
    for (size_t i = 0; i < rows_; ++i) {
      const size_t idx = i * cols_ + j;
      column[i] = idx < database_.size() ? database_[idx] : 0;
    }
    TRIPRIV_ASSIGN_OR_RETURN(BigInt folded,
                             PaillierFold(pub, encrypted_selector, column));
    out.push_back(std::move(folded));
  }
  return out;
}

Result<CpirClient> CpirClient::Create(size_t modulus_bits, uint64_t seed) {
  CpirClient client;
  client.rng_ = Rng(seed);
  TRIPRIV_ASSIGN_OR_RETURN(client.keys_,
                           PaillierGenerateKeys(modulus_bits, &client.rng_));
  return client;
}

Result<uint64_t> CpirClient::Read(CpirServer* server, size_t index) {
  TRIPRIV_CHECK(server != nullptr);
  if (index >= server->num_entries()) {
    return Status::OutOfRange("entry index out of range");
  }
  const size_t target_row = index / server->cols();
  const size_t target_col = index % server->cols();

  std::vector<BigInt> selector;
  selector.reserve(server->rows());
  for (size_t i = 0; i < server->rows(); ++i) {
    TRIPRIV_ASSIGN_OR_RETURN(
        BigInt c,
        PaillierEncrypt(keys_.pub, i == target_row ? BigInt(1) : BigInt(),
                        &rng_));
    selector.push_back(std::move(c));
  }
  last_upload_ = selector.size();
  TRIPRIV_ASSIGN_OR_RETURN(auto answer, server->Answer(keys_.pub, selector));
  last_download_ = answer.size();
  TRIPRIV_ASSIGN_OR_RETURN(
      BigInt value, PaillierDecrypt(keys_.pub, keys_.priv, answer[target_col]));
  return value.ToU64();
}

}  // namespace tripriv
