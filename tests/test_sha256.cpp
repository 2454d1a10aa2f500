// SHA-256 kernels: the SHA-NI kernel must compute exactly the scalar
// FIPS 180-4 kernel's function — every digest in the sweep cache depends
// on it — and the one-time kernel choice must be safe to race on.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/sha256.hpp"
#include "common/sha256_kernels.hpp"

namespace mot3d {
namespace {

using sha256_detail::compress_scalar;
using sha256_detail::hex_digest;

const std::string kMillionAs =
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

void expect_fips_vectors(sha256_detail::Compress k) {
  EXPECT_EQ(hex_digest(k, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_digest(k, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_digest(k, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex_digest(k, std::string(1000000, 'a')), kMillionAs);
}

TEST(Sha256, ScalarKernelMatchesFipsVectors) {
  expect_fips_vectors(compress_scalar);
}

TEST(Sha256, ShaNiKernelMatchesFipsVectors) {
  const sha256_detail::Compress shani = sha256_detail::shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA-NI on this CPU or build";
  expect_fips_vectors(shani);
}

TEST(Sha256, ShaNiKernelMatchesScalarOnEveryLengthUpTo1100) {
  const sha256_detail::Compress shani = sha256_detail::shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA-NI on this CPU or build";
  std::mt19937_64 rng(20160314);
  std::string data;
  for (std::size_t len = 0; len <= 1100; ++len) {
    data.resize(len);
    for (char& c : data) c = static_cast<char>(rng());
    ASSERT_EQ(hex_digest(shani, data), hex_digest(compress_scalar, data))
        << "length " << len;
  }
}

TEST(Sha256, PublicDigestUsesAnEquivalentKernel) {
  EXPECT_EQ(sha256_hex(std::string(1000000, 'a')), kMillionAs);
  const std::string spec = R"({"format": 1, "app": "fft", "fabric": "mot"})";
  EXPECT_EQ(sha256_hex(spec), hex_digest(compress_scalar, spec));
}

TEST(Sha256, FirstUseFromManyThreadsAgrees) {
  // Each ctest case is its own process, so these threads race on the
  // one-time kernel choice.
  const std::string msg(777, 'q');
  std::vector<std::string> got(4);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
      threads.emplace_back([&, t] { got[t] = sha256_hex(msg); });
    }
    for (std::thread& th : threads) th.join();
  }
  for (const std::string& d : got) EXPECT_EQ(d, hex_digest(compress_scalar, msg));
}

}  // namespace
}  // namespace mot3d
