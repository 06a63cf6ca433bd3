// Paillier additively homomorphic cryptosystem.
//
// The public-key workhorse behind the crypto protocols in this library:
// secure scalar products and single-server computational PIR both exploit
// Enc(a) * Enc(b) = Enc(a + b) and Enc(a)^k = Enc(k a). Standard scheme
// with g = n + 1:
//   keygen:  n = p q,  lambda = lcm(p-1, q-1),  mu = lambda^{-1} mod n
//   encrypt: c = (1 + m n) r^n mod n^2,  r uniform in Z*_n
//   decrypt: m = L(c^lambda mod n^2) mu mod n,  L(u) = (u - 1) / n
//
// Key sizes here are experiment-scale (>= 256-bit modulus); the point is
// protocol behaviour, not production-grade cryptographic strength.

#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.h"
#include "util/bigint.h"

namespace tripriv {

/// Public key (n, n^2); g is fixed to n + 1.
struct PaillierPublicKey {
  BigInt n;
  BigInt n_squared;

  /// Plaintext space size.
  const BigInt& plaintext_modulus() const { return n; }
};

/// Private key (lambda, mu).
struct PaillierPrivateKey {
  BigInt lambda;
  BigInt mu;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

/// Generates a key pair with an (approximately) `modulus_bits`-bit n.
/// Requires modulus_bits >= 64.
Result<PaillierKeyPair> PaillierGenerateKeys(size_t modulus_bits, Rng* rng);

/// Encrypts m in [0, n). Randomized: two encryptions of the same plaintext
/// differ.
TRIPRIV_SANITIZES(clean)
Result<BigInt> PaillierEncrypt(const PaillierPublicKey& pub, const BigInt& m,
                               Rng* rng);

/// Decrypts a ciphertext to its plaintext in [0, n).
Result<BigInt> PaillierDecrypt(const PaillierPublicKey& pub,
                               const PaillierPrivateKey& priv, const BigInt& c);

/// Homomorphic addition: Dec(PaillierAdd(c1, c2)) = m1 + m2 mod n.
BigInt PaillierAdd(const PaillierPublicKey& pub, const BigInt& c1,
                   const BigInt& c2);

/// Homomorphic plaintext addition: Dec(...) = m + k mod n.
BigInt PaillierAddPlain(const PaillierPublicKey& pub, const BigInt& c,
                        const BigInt& k);

/// Homomorphic scalar multiplication: Dec(...) = k m mod n. Requires k >= 0.
BigInt PaillierMulPlain(const PaillierPublicKey& pub, const BigInt& c,
                        const BigInt& k);

/// Homomorphic weighted sum Prod_i c_i^{w_i}: Dec(...) = sum_i w_i m_i mod
/// n. Zero weights are skipped; if every weight is 0 the result is the
/// ciphertext 1, Enc(0) with unit randomness. Requires one ciphertext per
/// weight. The fold of computational PIR and of private aggregates.
Result<BigInt> PaillierFold(const PaillierPublicKey& pub,
                            const std::vector<BigInt>& ciphertexts,
                            const std::vector<uint64_t>& weights);

/// A fresh encryption of zero, used for re-randomization.
TRIPRIV_SANITIZES(clean)
Result<BigInt> PaillierEncryptZero(const PaillierPublicKey& pub, Rng* rng);

}  // namespace tripriv

