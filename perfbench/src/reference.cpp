/// \file reference.cpp
/// \brief The host-speed reference: a fixed discrete-event loop that does
/// not use vodsim. Its time tracks how fast the shared host runs this kind
/// of code at the moment, so host timings can be scaled to a fixed speed.
///
/// The loop resembles the simulator's inner loop: a binary-heap event queue
/// of a few thousand pending events, virtual dispatch over event kinds, and
/// scattered floating-point updates to 2 MiB of per-stream records (about
/// one core's L2 cache). Every pass does exactly the same work.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

struct Stream {
  double level = 0.0;
  double rate = 1.0;
  double buffer = 0.0;
  double played = 0.0;
  std::uint64_t hits = 0;
  double pad[3] = {};
};

struct Kind {
  virtual ~Kind() = default;
  /// Advances \p s by \p dt and returns the delay to its next event.
  virtual double apply(Stream& s, double dt) const = 0;
};

struct Advance final : Kind {
  double apply(Stream& s, double dt) const override {
    s.level += s.rate * dt;
    return 1.0 + s.level * 1e-3;
  }
};

struct Drain final : Kind {
  double apply(Stream& s, double dt) const override {
    s.buffer = s.buffer > dt ? s.buffer - dt : 0.0;
    return 2.0 + s.buffer * 1e-4;
  }
};

struct Play final : Kind {
  double apply(Stream& s, double dt) const override {
    s.played += dt;
    s.rate = s.rate * 0.999 + 0.001;
    return 0.5 + s.played * 1e-6;
  }
};

struct Count final : Kind {
  double apply(Stream& s, double dt) const override {
    ++s.hits;
    return (s.hits & 7) != 0 ? 1.5 : 3.0 + dt;
  }
};

constexpr std::size_t kStreams = std::size_t{1} << 15;  // 2 MiB of records
constexpr std::uint32_t kPending = 6000;
constexpr std::size_t kEvents = 200000;
constexpr int kTouchesPerEvent = 12;

volatile double sink = 0.0;  // keeps the loop's result alive

}  // namespace

double reference_pass() {
  static std::vector<Stream> streams(kStreams);
  static const Advance advance;
  static const Drain drain;
  static const Play play;
  static const Count count;
  static const Kind* const kinds[4] = {&advance, &drain, &play, &count};

  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t rng = 88172645463325252ULL;  // xorshift64, fixed seed
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  const auto start = Clock::now();
  std::fill(streams.begin(), streams.end(), Stream{});
  for (std::uint32_t id = 0; id < kPending; ++id) {
    queue.push({static_cast<double>(next() % 1000), id});
  }
  double now = 0.0;
  double sum = 0.0;
  for (std::size_t e = 0; e < kEvents; ++e) {
    const auto [time, id] = queue.top();
    queue.pop();
    const double dt = time - now;
    now = time;
    Stream& stream = streams[(id * 2654435761u) & (kStreams - 1)];
    const double delay = kinds[id & 3]->apply(stream, dt);
    for (int touch = 0; touch < kTouchesPerEvent; ++touch) {
      Stream& other = streams[next() & (kStreams - 1)];
      if (other.buffer < other.level) {
        other.buffer += delay * 0.01;
      } else {
        other.level += 0.001;
      }
      sum += other.rate;
    }
    queue.push({now + delay + static_cast<double>(next() & 63) * 0.01, id});
  }
  sink = sum;
  return seconds_since(start);
}

}  // namespace perfbench
