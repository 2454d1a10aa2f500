// Internal: the SHA-256 compression kernels behind sha256_hex.
//
// Two kernels compute the same FIPS 180-4 compression function: the
// portable scalar one, and on x86 an SHA-NI one built from the SHA
// extension's round and message-schedule instructions.  sha256_hex picks
// one on first use (SHA-NI when CPUID reports it) and never switches.
// This header exists so tests can run both kernels side by side; callers
// outside common/ use sha256.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mot3d::sha256_detail {

/// Fold `blocks` consecutive 64-byte blocks at `data` into `state`
/// (H0..H7, host-order words).
using Compress = void (*)(std::uint32_t state[8], const unsigned char* data,
                          std::size_t blocks);

void compress_scalar(std::uint32_t state[8], const unsigned char* data,
                     std::size_t blocks);

/// SHA-NI kernel, or nullptr when this build or this CPU lacks it (CPUID
/// leaf 7 EBX bit 29, plus SSSE3 and SSE4.1 for the byte shuffles).
Compress shani_kernel();

/// Lowercase hex digest of `data` computed with `compress`.
std::string hex_digest(Compress compress, const std::string& data);

}  // namespace mot3d::sha256_detail
