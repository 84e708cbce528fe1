// stop_token.h — cooperative cancellation with optional deadlines.
//
// A StopSource owns a stop request; the StopTokens it hands out are
// cheap shared views that long-running work (the simulator step loop,
// campaign workers, daemon runs) consults between units of progress.
// Tokens never interrupt anything — work stops only where it chooses to
// check, which is what makes cancellation safe around sinks, file
// streams and solver state.
//
// A deadline is just a pre-armed stop: with_deadline() makes a source
// whose tokens start reporting stop_requested() once the steady clock
// passes the given point, with no timer thread involved. The serve
// daemon uses one source per request (deadline from the client, stop
// from the drain path) so a single per-step check covers both.
//
// A default-constructed StopToken is empty and never stops; checking it
// is one pointer test, so hot loops can take a token unconditionally.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

namespace otem::exec {

class StopSource;

class StopToken {
 public:
  StopToken() = default;

  /// True when this token is connected to a source (an empty token
  /// never reports a stop).
  bool stop_possible() const { return state_ != nullptr; }

  /// True once the source requested a stop or the deadline passed.
  bool stop_requested() const {
    if (!state_) return false;
    if (state_->stopped.load(std::memory_order_acquire)) return true;
    if (state_->has_deadline &&
        std::chrono::steady_clock::now() >= state_->deadline) {
      // Latch, so later checks skip the clock read and so the source
      // can distinguish "expired" from "never fired".
      state_->deadline_hit.store(true, std::memory_order_relaxed);
      state_->stopped.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// True when the stop came from the deadline rather than an explicit
  /// request_stop() (how serve maps SimCancelled to deadline_exceeded
  /// vs cancelled).
  bool deadline_expired() const {
    return state_ && state_->deadline_hit.load(std::memory_order_relaxed);
  }

 private:
  friend class StopSource;

  struct State {
    std::atomic<bool> stopped{false};
    std::atomic<bool> deadline_hit{false};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  explicit StopToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class StopSource {
 public:
  StopSource() : state_(std::make_shared<StopToken::State>()) {}

  /// A source whose tokens trip once the steady clock reaches
  /// `deadline` (in addition to any explicit request_stop()).
  static StopSource with_deadline(
      std::chrono::steady_clock::time_point deadline) {
    StopSource src;
    src.state_->has_deadline = true;
    src.state_->deadline = deadline;
    return src;
  }

  StopToken token() const { return StopToken(state_); }

  /// Const: stopping mutates only the shared state the tokens watch,
  /// so a source held by const reference (e.g. in a registry of
  /// in-flight requests) can still fire.
  void request_stop() const {
    state_->stopped.store(true, std::memory_order_release);
  }

  bool stop_requested() const { return token().stop_requested(); }

 private:
  std::shared_ptr<StopToken::State> state_;
};

}  // namespace otem::exec
