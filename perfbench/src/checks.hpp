#pragma once
// Output checks of the serving benchmark.  Each returns an empty string
// when the output is right and a one-line reason when it is not; a request
// with any non-empty reason counts as failed.  They are plain functions
// of their inputs so the self-test can feed them corrupted results.

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/channel.hpp"
#include "crypto/prng.hpp"
#include "nn/tensor.hpp"
#include "offline/ot_triple_source.hpp"
#include "offline/triple_store.hpp"

namespace perfbench {

namespace nn = pasnet::nn;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;

/// Largest |secure − plaintext| logit difference the repository's
/// secure-vs-plaintext ResNet test accepts.
inline constexpr float kLogitTolerance = 0.25f;

/// Same shape and every element within `tol`.
[[nodiscard]] std::string check_close(const nn::Tensor& got, const nn::Tensor& want, float tol);
/// Same shape and every element bit-identical.
[[nodiscard]] std::string check_identical(const nn::Tensor& got, const nn::Tensor& want);

/// Measured rounds and bytes equal the analytic model exactly.
[[nodiscard]] std::string check_counts(const std::string& what, std::uint64_t rounds,
                                       std::uint64_t bytes, std::uint64_t want_rounds,
                                       std::uint64_t want_bytes);
/// Two meters (both endpoints', or one and its analytic model) agree on
/// bytes in each direction, messages and rounds.
[[nodiscard]] std::string check_traffic(const std::string& what, const pc::TrafficStats& got,
                                        const pc::TrafficStats& want);
/// The OT-extension generation cost as the meter reads it.
[[nodiscard]] pc::TrafficStats as_traffic(const off::OtExtCost& c);

/// Recombines party 0's and party 1's halves of remote ot-ext bundles and
/// checks c = a·b on `samples` randomly picked entries of each elem,
/// matmul and bit triple.
[[nodiscard]] std::string check_triples(const std::vector<off::QueryBundle>& p0,
                                        const std::vector<off::QueryBundle>& p1,
                                        const pc::RingConfig& rc, pc::Prng& pick, int samples);

}  // namespace perfbench
