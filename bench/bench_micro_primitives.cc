/// Micro-benchmarks (google-benchmark) of the primitives every experiment
/// rests on: hashing, Bloom-filter encoding, bit-vector similarity, LSH key
/// extraction, and the Paillier operations that dominate the cryptographic
/// baseline. These are the per-op costs behind the E3/E4 cost tables.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/bitvector.h"
#include "common/random.h"
#include "crypto/hash.h"
#include "crypto/paillier.h"
#include "blocking/lsh_blocking.h"
#include "encoding/bloom_filter.h"
#include "similarity/similarity.h"

namespace pprl {
namespace {

/// The SHA-256 and keyed-encoding benchmarks' second argument picks the
/// compression clone through the test seam: 0 portable, 1 the SHA
/// extensions. A clone the CPU lacks is reported as skipped.
bool Sha256CloneSupported(benchmark::State& state) {
  const auto clones = SupportedSha256Clones();
  if (std::find(clones.begin(), clones.end(), static_cast<Sha256Clone>(state.range(1))) !=
      clones.end()) {
    return true;
  }
  state.SkipWithError("this CPU lacks the SHA-256 clone");
  return false;
}

void BM_Sha256(benchmark::State& state) {
  if (!Sha256CloneSupported(state)) return;
  const ScopedSha256Clone clone(static_cast<Sha256Clone>(state.range(1)));
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->ArgsProduct({{16, 256, 4096}, {0, 1}});

void BM_HmacSha256(benchmark::State& state) {
  const std::string data(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256("key", data));
  }
}
BENCHMARK(BM_HmacSha256);

/// One MAC under a prebuilt key: the key's pads were hashed once, so a
/// 16-byte message is one inner and one outer compression, the cost of a
/// keyed Bloom position.
void BM_HmacSha256Key(benchmark::State& state) {
  if (!Sha256CloneSupported(state)) return;
  const ScopedSha256Clone clone(static_cast<Sha256Clone>(state.range(1)));
  const HmacSha256Key key("key");
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Mac(data));
  }
}
BENCHMARK(BM_HmacSha256Key)->ArgsProduct({{16, 64}, {0, 1}});

void BM_Md5(benchmark::State& state) {
  const std::string data(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5(data));
  }
}
BENCHMARK(BM_Md5);

void BM_BloomEncodeString(benchmark::State& state) {
  const BloomFilterEncoder encoder(
      {1000, static_cast<size_t>(state.range(0)), BloomHashScheme::kDoubleHashing, ""});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeString("katherine anderson"));
  }
}
BENCHMARK(BM_BloomEncodeString)->Arg(10)->Arg(30)->Arg(50);

void BM_BloomEncodeKeyed(benchmark::State& state) {
  if (!Sha256CloneSupported(state)) return;
  const ScopedSha256Clone clone(static_cast<Sha256Clone>(state.range(1)));
  const BloomFilterEncoder encoder(
      {1000, static_cast<size_t>(state.range(0)), BloomHashScheme::kKeyedHmac, "key"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeString("katherine anderson"));
  }
}
BENCHMARK(BM_BloomEncodeKeyed)->ArgsProduct({{10, 30}, {0, 1}});

BitVector RandomFilter(size_t bits, double density, uint64_t seed) {
  Rng rng(seed);
  BitVector bv(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(density)) bv.Set(i);
  }
  return bv;
}

void BM_DiceSimilarity(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  const BitVector a = RandomFilter(bits, 0.3, 1);
  const BitVector b = RandomFilter(bits, 0.3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiceSimilarity(a, b));
  }
}
BENCHMARK(BM_DiceSimilarity)->Arg(500)->Arg(1000)->Arg(4000);

void BM_LshKeys(benchmark::State& state) {
  Rng rng(5);
  const HammingLshBlocker blocker(1000, static_cast<size_t>(state.range(0)), 18, rng);
  const BitVector filter = RandomFilter(1000, 0.3, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocker.Keys(filter));
  }
}
BENCHMARK(BM_LshKeys)->Arg(10)->Arg(20)->Arg(40);

void BM_PaillierEncrypt(benchmark::State& state) {
  Rng rng(7);
  auto paillier = Paillier::Generate(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(paillier->Encrypt(BigInt(12345), rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(128)->Arg(256)->Arg(512);

void BM_PaillierDecrypt(benchmark::State& state) {
  Rng rng(9);
  auto paillier = Paillier::Generate(rng, static_cast<size_t>(state.range(0)));
  auto ciphertext = paillier->Encrypt(BigInt(12345), rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(paillier->Decrypt(ciphertext));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(128)->Arg(256)->Arg(512);

void BM_PaillierAdd(benchmark::State& state) {
  Rng rng(11);
  auto paillier = Paillier::Generate(rng, 256);
  auto c1 = paillier->Encrypt(BigInt(1), rng).value();
  auto c2 = paillier->Encrypt(BigInt(2), rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(paillier->AddCiphertexts(c1, c2));
  }
}
BENCHMARK(BM_PaillierAdd);

}  // namespace
}  // namespace pprl

BENCHMARK_MAIN();
