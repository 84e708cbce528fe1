// config.h — flat key/value configuration store.
//
// Examples and benchmarks accept "key=value" overrides (command line or a
// config file with '#' comments) so experiments can be re-parameterised
// without recompiling. Keys are dotted paths, e.g. "battery.capacity_ah".
//
// The store tracks CONSUMPTION: every accessor (has/get_*) marks its key
// as read, and unused_keys() reports overrides nothing ever looked at —
// how the CLI and benches turn a typo like "otem.w2x=5e9" into a loud
// warning instead of a silently-ignored fallback. The consumed set is
// shared between copies of a Config (copies hand the same experiment's
// keys to different subsystems), so a key counts as used no matter which
// copy served the read.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace otem {

class Config {
 public:
  Config();

  /// Parse one "key=value" pair; throws otem::SimError on malformed
  /// input. Re-setting a key already present with a DIFFERENT value
  /// warns through otem::log (last one wins either way) — how a
  /// duplicated override on one command line or serve request fails
  /// loudly instead of silently shadowing.
  void set_pair(std::string_view pair);

  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, double value);

  bool has(const std::string& key) const;

  /// Fetch with fallback — the workhorse accessor for parameter structs.
  /// get_double throws otem::SimError naming the key when the value
  /// parses to NaN or an infinity.
  double get_double(const std::string& key, double fallback) const;
  long get_long(const std::string& key, long fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Parse a whole file of "key=value" lines ('#' starts a comment).
  static Config from_file(const std::string& path);

  /// Parse argv-style overrides, ignoring entries without '='.
  static Config from_args(int argc, const char* const* argv);

  /// All keys, sorted (for diagnostics / dumping). Does not mark keys
  /// as consumed.
  std::vector<std::string> keys() const;

  /// Keys present in THIS config that no accessor (here or on any copy)
  /// has read yet, sorted. Call after the experiment is wired up to
  /// catch misspelled overrides.
  std::vector<std::string> unused_keys() const;

 private:
  void touch(const std::string& key) const;

  std::map<std::string, std::string> values_;
  // Shared across copies; see the header comment.
  std::shared_ptr<std::set<std::string>> consumed_;
};

}  // namespace otem
