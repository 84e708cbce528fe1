#include "common/config.h"

#include <cmath>
#include <fstream>

#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"

namespace otem {

Config::Config() : consumed_(std::make_shared<std::set<std::string>>()) {}

void Config::touch(const std::string& key) const { consumed_->insert(key); }

void Config::set_pair(std::string_view pair) {
  const auto eq = pair.find('=');
  OTEM_REQUIRE(eq != std::string_view::npos,
               "config override must be key=value, got: '" +
                   std::string(pair) + "'");
  const std::string key = strings::trim(pair.substr(0, eq));
  const std::string value = strings::trim(pair.substr(eq + 1));
  OTEM_REQUIRE(!key.empty(), "config key must be non-empty");
  // A key repeated within one command line / request is almost always a
  // mistake (the later value silently shadowing the earlier one is how
  // "repeats=10 ... repeats=1" experiments go wrong), so say so. Last
  // one still wins — both orders warn, only the surviving value differs.
  const auto it = values_.find(key);
  if (it != values_.end() && it->second != value) {
    log::warn("duplicate config key '", key, "': value '", it->second,
              "' overridden by '", value, "'");
  }
  values_[key] = value;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set(const std::string& key, double value) {
  values_[key] = strings::format_double(value, 12);
}

bool Config::has(const std::string& key) const {
  touch(key);
  return values_.count(key) > 0;
}

double Config::get_double(const std::string& key, double fallback) const {
  touch(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const double v = strings::parse_double(it->second);
  if (!std::isfinite(v))
    throw SimError("config key '" + key + "' is not a finite number: '" +
                   it->second + "'");
  return v;
}

long Config::get_long(const std::string& key, long fallback) const {
  touch(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : strings::parse_long(it->second);
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  touch(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  touch(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string v = strings::to_lower(it->second);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw SimError("config key '" + key + "' is not a boolean: '" + it->second +
                 "'");
}

Config Config::from_file(const std::string& path) {
  std::ifstream f(path);
  OTEM_REQUIRE(f.good(), "cannot open config file: " + path);
  Config cfg;
  std::string line;
  while (std::getline(f, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const std::string trimmed = strings::trim(line);
    if (trimmed.empty()) continue;
    cfg.set_pair(trimmed);
  }
  return cfg;
}

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.find('=') != std::string_view::npos) cfg.set_pair(arg);
  }
  return cfg;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (!consumed_->count(k)) out.push_back(k);
  }
  return out;
}

}  // namespace otem
