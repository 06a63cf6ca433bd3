#include "smc/paillier.h"

namespace tripriv {

Result<PaillierKeyPair> PaillierGenerateKeys(size_t modulus_bits, Rng* rng) {
  TRIPRIV_CHECK(rng != nullptr);
  if (modulus_bits < 64) {
    return Status::InvalidArgument("modulus must be >= 64 bits");
  }
  const size_t half = modulus_bits / 2;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const BigInt p = BigInt::RandomPrime(half, rng);
    const BigInt q = BigInt::RandomPrime(modulus_bits - half, rng);
    if (p == q) continue;
    const BigInt n = p * q;
    // g = n + 1 requires gcd(n, lambda) handling via mu existence below.
    const BigInt lambda = BigInt::Lcm(p - BigInt(1), q - BigInt(1));
    // mu = (L(g^lambda mod n^2))^{-1} mod n; with g = n + 1 this reduces to
    // lambda^{-1} mod n.
    auto mu = BigInt::ModInverse(lambda, n);
    if (!mu.ok()) continue;  // gcd(lambda, n) != 1 (rare); retry
    PaillierKeyPair keys;
    keys.pub.n = n;
    keys.pub.n_squared = n * n;
    keys.priv.lambda = lambda;
    keys.priv.mu = std::move(mu).value();
    return keys;
  }
  return Status::Internal("Paillier keygen failed to find a valid modulus");
}

Result<BigInt> PaillierEncrypt(const PaillierPublicKey& pub, const BigInt& m,
                               Rng* rng) {
  TRIPRIV_CHECK(rng != nullptr);
  if (m.IsNegative() || m >= pub.n) {
    return Status::InvalidArgument("plaintext must lie in [0, n)");
  }
  // r uniform in [1, n) with gcd(r, n) = 1 (holds w.o.p. for random r).
  BigInt r;
  do {
    r = BigInt::RandomBelow(pub.n, rng);
  } while (r.IsZero() || BigInt::Gcd(r, pub.n) != BigInt(1));
  // c = (1 + m n) * r^n mod n^2.
  const BigInt gm = (BigInt(1) + m * pub.n).Mod(pub.n_squared);
  const BigInt rn = BigInt::ModExp(r, pub.n, pub.n_squared);
  return BigInt::ModMul(gm, rn, pub.n_squared);
}

Result<BigInt> PaillierDecrypt(const PaillierPublicKey& pub,
                               const PaillierPrivateKey& priv,
                               const BigInt& c) {
  if (c.IsNegative() || c >= pub.n_squared) {
    return Status::InvalidArgument("ciphertext must lie in [0, n^2)");
  }
  const BigInt u = BigInt::ModExp(c, priv.lambda, pub.n_squared);
  // L(u) = (u - 1) / n — exact division for valid ciphertexts.
  const BigInt l = (u - BigInt(1)) / pub.n;
  return BigInt::ModMul(l, priv.mu, pub.n);
}

BigInt PaillierAdd(const PaillierPublicKey& pub, const BigInt& c1,
                   const BigInt& c2) {
  return BigInt::ModMul(c1, c2, pub.n_squared);
}

BigInt PaillierAddPlain(const PaillierPublicKey& pub, const BigInt& c,
                        const BigInt& k) {
  const BigInt gk = (BigInt(1) + k.Mod(pub.n) * pub.n).Mod(pub.n_squared);
  return BigInt::ModMul(c, gk, pub.n_squared);
}

BigInt PaillierMulPlain(const PaillierPublicKey& pub, const BigInt& c,
                        const BigInt& k) {
  TRIPRIV_CHECK(!k.IsNegative());
  return BigInt::ModExp(c, k, pub.n_squared);
}

Result<BigInt> PaillierFold(const PaillierPublicKey& pub,
                            const std::vector<BigInt>& ciphertexts,
                            const std::vector<uint64_t>& weights) {
  if (ciphertexts.size() != weights.size()) {
    return Status::InvalidArgument(
        "selector must have one ciphertext per weight");
  }
  BigInt acc(1);  // Enc(0) with unit randomness; 1 * c mod n^2 = c
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] == 0) continue;
    acc = PaillierAdd(
        pub, acc,
        PaillierMulPlain(pub, ciphertexts[i], BigInt::FromU64(weights[i])));
  }
  return acc;
}

Result<BigInt> PaillierEncryptZero(const PaillierPublicKey& pub, Rng* rng) {
  return PaillierEncrypt(pub, BigInt(), rng);
}

}  // namespace tripriv
