// SHA-256 (FIPS 180-4) — the content hash behind the sweep service's
// result cache.
//
// Cache keys must be collision-resistant across millions of memoized
// experiment specs and stable across platforms and releases, which rules
// out std::hash (unspecified) and 64-bit FNV (birthday collisions at
// cache sizes we actually expect).  No external dependency; digests are
// byte-identical everywhere.  On x86 CPUs with the SHA extensions the
// compression runs on SHA-NI, elsewhere on the portable FIPS 180-4
// reference kernel (common/sha256_kernels.hpp).
#pragma once

#include <cstdint>
#include <string>

namespace mot3d {

/// Lowercase hex digest (64 chars) of `data`.
std::string sha256_hex(const std::string& data);

}  // namespace mot3d
