// The campaign's durable store: a Store<core::VideoCodec> (store.hpp) with
// one video per (site, protocol, network) condition, in the same format as
// the VideoLibrary cache. Campaign stores carry no link conditions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "core/video.hpp"
#include "net/profile.hpp"
#include "runner/store.hpp"

namespace qperc::runner {

struct ResultStore : Store<core::VideoCodec> {
  ResultStore(std::string path, std::uint64_t seed, std::uint32_t runs,
              std::size_t checkpoint_every = 25)
      : Store(std::move(path), core::VideoCodec{seed, runs, {}},
              checkpoint_every) {}

  using Store::contains;
  [[nodiscard]] bool contains(const std::string& site, const std::string& protocol,
                              net::NetworkKind network) const {
    return contains(Key{site, protocol, static_cast<int>(network)});
  }
};

}  // namespace qperc::runner
