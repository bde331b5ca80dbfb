#include "io/crc32c.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace rased {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 (iSCSI) CRC32C test vectors.
  unsigned char zeros[32] = {0};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8a9136aau);

  unsigned char ones[32];
  for (auto& b : ones) b = 0xff;
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62a8ab43u);

  unsigned char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(Crc32c(ascending, sizeof(ascending)), 0x46dd794eu);
}

// Every implementation compiled into this binary that the CPU can run:
// the dispatched entry point, the portable twin, and the hardware one.
std::vector<std::pair<const char*, Crc32cFn>> Implementations() {
  std::vector<std::pair<const char*, Crc32cFn>> impls = {
      {"dispatched", &Crc32c}, {"portable", &Crc32cPortable}};
  if (Crc32cHardware() != nullptr) impls.emplace_back("sse42", Crc32cHardware());
  return impls;
}

TEST(Crc32cTest, KnownVectorsForEveryImplementation) {
  unsigned char zeros[32] = {0};
  unsigned char ones[32];
  unsigned char ascending[32];
  unsigned char descending[32];
  for (int i = 0; i < 32; ++i) {
    ones[i] = 0xff;
    ascending[i] = static_cast<unsigned char>(i);
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  const std::string digits = "123456789";
  for (const auto& [name, crc] : Implementations()) {
    // RFC 3720 (iSCSI) vectors, plus the standard "123456789" check value.
    EXPECT_EQ(crc(zeros, sizeof(zeros), 0), 0x8a9136aau) << name;
    EXPECT_EQ(crc(ones, sizeof(ones), 0), 0x62a8ab43u) << name;
    EXPECT_EQ(crc(ascending, sizeof(ascending), 0), 0x46dd794eu) << name;
    EXPECT_EQ(crc(descending, sizeof(descending), 0), 0x113fdb5cu) << name;
    EXPECT_EQ(crc(digits.data(), digits.size(), 0), 0xe3069283u) << name;
    EXPECT_EQ(crc(nullptr, 0, 0), 0u) << name;
  }
}

// The hardware and slice-by-8 paths must agree bit for bit on every
// length and start alignment, including chained seeds: page checksums
// written on one host are verified on another.
TEST(Crc32cTest, HardwareMatchesPortableAtEveryLengthAndAlignment) {
  Crc32cFn hardware = Crc32cHardware();
  if (hardware == nullptr) {
    GTEST_SKIP() << "SSE4.2 CRC32C not compiled in or not supported";
  }
  Rng rng(32);
  std::vector<unsigned char> buf(9000 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Uniform(256));
  uint32_t seed = 0;
  for (size_t len = 0; len <= 9000; ++len) {
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      const unsigned char* p = buf.data() + misalign;
      uint32_t want = Crc32cPortable(p, len, seed);
      uint32_t got = hardware(p, len, seed);
      ASSERT_EQ(got, want) << "len " << len << " misalign " << misalign;
      seed = want;  // chain: the next call continues from this CRC
    }
  }
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, SensitiveToSingleBitFlip) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t base = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 1;
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base) << "byte " << i;
  }
}

TEST(Crc32cTest, SeedChaining) {
  // CRC over "ab" equals CRC over "b" seeded with CRC("a").
  uint32_t a = Crc32c("a", 1);
  uint32_t ab_direct = Crc32c("ab", 2);
  uint32_t ab_chained = Crc32c("b", 1, a);
  EXPECT_EQ(ab_direct, ab_chained);
}

TEST(Crc32cTest, Deterministic) {
  std::string data(4096, 'x');
  EXPECT_EQ(Crc32c(data.data(), data.size()),
            Crc32c(data.data(), data.size()));
}

}  // namespace
}  // namespace rased
