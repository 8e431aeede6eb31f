#include "checks.hpp"

#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

std::string shape_mismatch(const nn::Tensor& got, const nn::Tensor& want) {
  if (got.shape() == want.shape() && got.size() == want.size()) return "";
  return "logit shape differs";
}

std::string field_differs(const char* field, std::uint64_t got, std::uint64_t want) {
  return std::string(field) + " " + std::to_string(got) + " != " + std::to_string(want);
}

}  // namespace

std::string check_close(const nn::Tensor& got, const nn::Tensor& want, float tol) {
  if (std::string why = shape_mismatch(got, want); !why.empty()) return why;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Written so a NaN fails.
    if (!(std::abs(got[i] - want[i]) <= tol)) {
      return "logit " + std::to_string(i) + " off by more than " + std::to_string(tol);
    }
  }
  return "";
}

std::string check_identical(const nn::Tensor& got, const nn::Tensor& want) {
  if (std::string why = shape_mismatch(got, want); !why.empty()) return why;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float a = got[i], b = want[i];
    if (std::memcmp(&a, &b, sizeof(float)) != 0) {
      return "logit " + std::to_string(i) + " not bit-identical";
    }
  }
  return "";
}

std::string check_counts(const std::string& what, std::uint64_t rounds, std::uint64_t bytes,
                         std::uint64_t want_rounds, std::uint64_t want_bytes) {
  if (rounds != want_rounds) return what + ": " + field_differs("rounds", rounds, want_rounds);
  if (bytes != want_bytes) return what + ": " + field_differs("bytes", bytes, want_bytes);
  return "";
}

std::string check_traffic(const std::string& what, const pc::TrafficStats& got,
                          const pc::TrafficStats& want) {
  const auto differs = [&](const char* field, std::uint64_t g, std::uint64_t w) {
    return what + ": " + field_differs(field, g, w);
  };
  if (got.bytes_p0_to_p1 != want.bytes_p0_to_p1) {
    return differs("bytes_p0_to_p1", got.bytes_p0_to_p1, want.bytes_p0_to_p1);
  }
  if (got.bytes_p1_to_p0 != want.bytes_p1_to_p0) {
    return differs("bytes_p1_to_p0", got.bytes_p1_to_p0, want.bytes_p1_to_p0);
  }
  if (got.messages != want.messages) return differs("messages", got.messages, want.messages);
  if (got.rounds != want.rounds) return differs("rounds", got.rounds, want.rounds);
  return "";
}

pc::TrafficStats as_traffic(const off::OtExtCost& c) {
  pc::TrafficStats t;
  t.bytes_p0_to_p1 = c.bytes_p0_to_p1;
  t.bytes_p1_to_p0 = c.bytes_p1_to_p0;
  t.messages = c.messages;
  t.rounds = c.rounds;
  return t;
}

std::string check_triples(const std::vector<off::QueryBundle>& p0,
                          const std::vector<off::QueryBundle>& p1, const pc::RingConfig& rc,
                          pc::Prng& pick, int samples) {
  if (p0.size() != p1.size()) return "triples: bundle counts differ";
  const std::uint64_t mask = rc.mask();
  const auto draw = [&](std::size_t n) { return static_cast<std::size_t>(pick.next_u64() % n); };
  for (std::size_t q = 0; q < p0.size(); ++q) {
    const off::QueryBundle& b0 = p0[q];
    const off::QueryBundle& b1 = p1[q];
    if (b0.elem.size() != b1.elem.size() || b0.matmul.size() != b1.matmul.size() ||
        b0.bit.size() != b1.bit.size()) {
      return "triples: bundle shapes differ";
    }
    for (std::size_t t = 0; t < b0.elem.size(); ++t) {
      const pc::ElemTriple& x = b0.elem[t];
      const pc::ElemTriple& y = b1.elem[t];
      const std::size_t n = x.a.s0.size();
      if (n == 0 || y.a.s1.size() != n) return "triples: elem size mismatch";
      for (int s = 0; s < samples; ++s) {
        const std::size_t i = draw(n);
        const std::uint64_t a = (x.a.s0[i] + y.a.s1[i]) & mask;
        const std::uint64_t b = (x.b.s0[i] + y.b.s1[i]) & mask;
        const std::uint64_t z = (x.z.s0[i] + y.z.s1[i]) & mask;
        if (z != ((a * b) & mask)) return "triples: elem c != a*b";
      }
    }
    for (std::size_t t = 0; t < b0.matmul.size(); ++t) {
      const pc::MatmulTriple& x = b0.matmul[t];
      const pc::MatmulTriple& y = b1.matmul[t];
      if (x.m * x.k * x.n == 0 || x.m != y.m || x.k != y.k || x.n != y.n ||
          y.z.s1.size() != x.m * x.n) {
        return "triples: matmul shape mismatch";
      }
      for (int s = 0; s < samples; ++s) {
        const std::size_t i = draw(x.m);
        const std::size_t j = draw(x.n);
        std::uint64_t acc = 0;
        for (std::size_t l = 0; l < x.k; ++l) {
          const std::uint64_t a = x.a.s0[i * x.k + l] + y.a.s1[i * x.k + l];
          const std::uint64_t b = x.b.s0[l * x.n + j] + y.b.s1[l * x.n + j];
          acc += a * b;
        }
        const std::uint64_t z = (x.z.s0[i * x.n + j] + y.z.s1[i * x.n + j]) & mask;
        if (z != (acc & mask)) return "triples: matmul c != a*b";
      }
    }
    for (std::size_t t = 0; t < b0.bit.size(); ++t) {
      const pc::BitTriple& x = b0.bit[t];
      const pc::BitTriple& y = b1.bit[t];
      const std::size_t n = x.a0.size();
      if (n == 0 || y.a1.size() != n) return "triples: bit size mismatch";
      for (int s = 0; s < samples; ++s) {
        const std::size_t i = draw(n);
        if ((x.c0[i] ^ y.c1[i]) != ((x.a0[i] ^ y.a1[i]) & (x.b0[i] ^ y.b1[i]))) {
          return "triples: bit c != a AND b";
        }
      }
    }
  }
  return "";
}

}  // namespace perfbench
