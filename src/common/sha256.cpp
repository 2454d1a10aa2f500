#include "common/sha256.hpp"

#include <array>
#include <cstddef>
#include <cstring>

#include "common/sha256_kernels.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define MOT3D_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace mot3d {
namespace sha256_detail {

namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

void compress_block(std::uint32_t h[8], const unsigned char* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint32_t e = h[4], f = h[5], g = h[6], k = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = k + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    k = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += k;
}

#ifdef MOT3D_SHA256_X86
// Four rounds per step: rnds2 does two rounds on ABEF/CDGH with the
// K+W words in the low half of its third operand.  W is kept four words
// to a register, w[g % 4] holding words 4g..4g+3; msg1/msg2 extend the
// schedule twelve words ahead of the rounds that consume it.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t state[8], const unsigned char* data, std::size_t blocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // H0..H7 -> the ABEF / CDGH lane order the SHA instructions use.
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      }
      __m128i kw = _mm_add_epi32(
          w[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
      if (g >= 3 && g <= 14) {
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      kw = _mm_shuffle_epi32(kw, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, kw);
      if (g >= 1 && g <= 12) {
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_shani() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  // __builtin_cpu_supports("sha") is not reliable across GCC releases
  // (GCC 12 reports 0 on SHA-NI parts), so read the CPUID bits directly.
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return ssse3 && sse41 && (b & bit_SHA) != 0;
}
#endif

}  // namespace

void compress_scalar(std::uint32_t state[8], const unsigned char* data,
                     std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) compress_block(state, data);
}

Compress shani_kernel() {
#ifdef MOT3D_SHA256_X86
  // CPUID is read once, on first use (thread-safe static init).
  static const bool supported = cpu_has_shani();
  if (supported) return compress_shani;
#endif
  return nullptr;
}

std::string hex_digest(Compress compress, const std::string& data) {
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  const std::size_t whole = data.size() / 64;
  compress(h, p, whole);
  p += whole * 64;
  const std::size_t remaining = data.size() % 64;

  // Final block(s): message tail + 0x80 + zero pad + 64-bit bit length.
  unsigned char tail[128] = {0};
  std::memcpy(tail, p, remaining);
  tail[remaining] = 0x80;
  const std::size_t tail_blocks = remaining + 9 <= 64 ? 1 : 2;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_blocks * 64 - 1 - i] =
        static_cast<unsigned char>((bits >> (8 * i)) & 0xff);
  }
  compress(h, tail, tail_blocks);

  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint32_t word : h) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(hex[(word >> shift) & 0xf]);
    }
  }
  return out;
}

}  // namespace sha256_detail

std::string sha256_hex(const std::string& data) {
  // Both kernels compute the same function, so the choice never shows in
  // a digest.
  const sha256_detail::Compress shani = sha256_detail::shani_kernel();
  return sha256_detail::hex_digest(
      shani != nullptr ? shani : sha256_detail::compress_scalar, data);
}

}  // namespace mot3d
