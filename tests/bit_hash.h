// bit_hash.h — FNV-1a 64 over the raw bytes of doubles and counts, for
// tests that pin a computation's output bit for bit.
//
// A recorded hash holds only for the build it was recorded on: bytes
// are taken in host order, and a build that computes different bits
// (e.g. one that contracts a * b + c into an FMA) hashes differently.
// The pins that use this say which build their constants come from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace otem::test {

class BitHash {
 public:
  void add(double v) { bytes(&v, sizeof v); }
  void add_count(std::uint64_t v) { bytes(&v, sizeof v); }
  void add_flag(bool v) { add_count(v ? 1 : 0); }
  void add(const std::vector<double>& v) {
    add_count(v.size());
    for (const double d : v) add(d);
  }

  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 0x100000001b3ull;
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace otem::test
