#include "campaign/grid.h"

#include <cstdio>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/plant_state.h"
#include "vehicle/drive_cycle.h"

namespace otem::campaign {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {

/// Full-precision double rendering: 17 significant digits round-trip
/// exactly through strtod, so canonical keys and serve-fabric overrides
/// reproduce the same bits a local worker computes with.
std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Axis parser: "a,b,c" is an explicit list; "lo:hi:n" is an inclusive
/// linspace with n points (n >= 1; n == 1 yields lo).
std::vector<double> parse_axis(const std::string& text,
                               const std::string& key) {
  std::vector<double> out;
  if (text.find(':') != std::string::npos) {
    const std::vector<std::string> parts = strings::split(text, ':');
    OTEM_REQUIRE(parts.size() == 3,
                 key + ": linspace axis wants lo:hi:n, got '" + text + "'");
    const double lo = strings::parse_double(parts[0]);
    const double hi = strings::parse_double(parts[1]);
    const long n = strings::parse_long(parts[2]);
    OTEM_REQUIRE(n >= 1, key + ": linspace needs n >= 1");
    for (long i = 0; i < n; ++i)
      out.push_back(n == 1 ? lo
                           : lo + (hi - lo) * static_cast<double>(i) /
                                      static_cast<double>(n - 1));
    return out;
  }
  for (const std::string& piece : strings::split(text, ','))
    if (!piece.empty()) out.push_back(strings::parse_double(piece));
  OTEM_REQUIRE(!out.empty(), key + ": empty axis '" + text + "'");
  return out;
}

std::vector<std::string> parse_names(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& piece : strings::split(text, ','))
    if (!piece.empty()) out.push_back(piece);
  return out;
}

}  // namespace

Grid Grid::from_config(const Config& cfg) {
  Grid g;
  if (cfg.has("campaign.methods"))
    g.methodologies = parse_names(cfg.get_string("campaign.methods", ""));
  if (cfg.has("campaign.cycles"))
    g.cycles = parse_names(cfg.get_string("campaign.cycles", ""));
  // When an explicit cycle axis is given, synthetic routes are opt-in.
  const long synth_default = cfg.has("campaign.cycles") ? 0 : 16;
  g.synthetic_routes = static_cast<size_t>(
      cfg.get_long("campaign.synthetic_routes", synth_default));
  g.min_duration_s =
      cfg.get_double("campaign.min_duration_s", g.min_duration_s);
  g.max_duration_s =
      cfg.get_double("campaign.max_duration_s", g.max_duration_s);
  g.max_speed_mps = cfg.get_double("campaign.max_speed_mps", g.max_speed_mps);
  if (cfg.has("campaign.ambients_k")) {
    g.ambients_k = parse_axis(cfg.get_string("campaign.ambients_k", ""),
                              "campaign.ambients_k");
  } else if (cfg.has("campaign.ambients_c")) {
    g.ambients_k = parse_axis(cfg.get_string("campaign.ambients_c", ""),
                              "campaign.ambients_c");
    for (double& a : g.ambients_k) a += 273.15;
  }
  g.ambient_min_k =
      cfg.get_double("campaign.ambient_min_c", g.ambient_min_k - 273.15) +
      273.15;
  g.ambient_max_k =
      cfg.get_double("campaign.ambient_max_c", g.ambient_max_k - 273.15) +
      273.15;
  if (cfg.has("campaign.uc_scales"))
    g.uc_scales = parse_axis(cfg.get_string("campaign.uc_scales", ""),
                             "campaign.uc_scales");
  g.soe0_min = cfg.get_double("campaign.soe0_min", g.soe0_min);
  g.soe0_max = cfg.get_double("campaign.soe0_max", g.soe0_max);
  g.seed = static_cast<std::uint64_t>(
      cfg.get_long("campaign.seed", static_cast<long>(g.seed)));
  g.validate();
  return g;
}

void Grid::validate() const {
  OTEM_REQUIRE(!methodologies.empty(), "campaign grid: no methodologies");
  OTEM_REQUIRE(routes() >= 1, "campaign grid: no routes (give "
                              "campaign.cycles or campaign.synthetic_routes)");
  OTEM_REQUIRE(!uc_scales.empty(), "campaign grid: empty uc_scales axis");
  for (double s : uc_scales)
    OTEM_REQUIRE(s > 0.0, "campaign grid: uc_scale must be positive");
  OTEM_REQUIRE(min_duration_s > 0.0 && max_duration_s >= min_duration_s,
               "campaign grid: duration range is inverted");
  OTEM_REQUIRE(ambient_min_k <= ambient_max_k,
               "campaign grid: ambient draw range is inverted");
  OTEM_REQUIRE(soe0_min <= soe0_max,
               "campaign grid: soe0 range is inverted");
  for (double a : ambients_k)
    core::require_temperature_k("campaign grid: ambient_k", a);
  core::require_temperature_k("campaign grid: ambient_min_k", ambient_min_k);
  core::require_temperature_k("campaign grid: ambient_max_k", ambient_max_k);
  core::require_percent("campaign grid: soe0_min", soe0_min);
  core::require_percent("campaign grid: soe0_max", soe0_max);
  for (const std::string& c : cycles)
    vehicle::cycle_from_string(c);  // throws on an unknown cycle name
}

ScenarioSpec Grid::at(size_t index) const {
  OTEM_REQUIRE(index < size(), "campaign grid: scenario index out of range");
  ScenarioSpec s;
  s.index = index;

  size_t rest = index;
  const size_t m = rest % methodologies.size();
  rest /= methodologies.size();
  const size_t u = rest % uc_scales.size();
  rest /= uc_scales.size();
  const size_t a = rest % ambient_slots();
  rest /= ambient_slots();
  const size_t r = rest;

  s.methodology = methodologies[m];
  s.uc_scale = uc_scales[u];
  s.max_speed_mps = max_speed_mps;

  // Per-route conditions, one O(1) derivation per at() call. The draw
  // ORDER (route seed, ambient, duration, soe0) is part of the grid's
  // identity — existing campaign ids depend on it.
  Rng rng(splitmix64(seed ^ splitmix64(0xC0FFEEull + r)));
  // Masked to 63 bits so the seed survives a round trip through the
  // serve protocol's long-typed synthetic_seed override.
  const std::uint64_t route_seed = rng.next_u64() >> 1;
  const double drawn_ambient = rng.uniform(ambient_min_k, ambient_max_k);
  const double duration = rng.uniform(min_duration_s, max_duration_s);
  const double soe0 = rng.uniform(soe0_min, soe0_max);

  if (r < cycles.size()) {
    s.route = cycles[r];
  } else {
    s.route = "synthetic";
    s.route_seed = route_seed;
    s.duration_s = duration;
  }
  s.ambient_k = ambients_k.empty() ? drawn_ambient : ambients_k[a];
  s.soe0 = soe0;

  const std::uint64_t content = fnv1a64(s.canonical_key());
  s.id = strings::hex_u64(content);
  s.seed = splitmix64(content ^ seed);
  return s;
}

std::string ScenarioSpec::canonical_key() const {
  std::string key = "method=" + methodology + "|route=" + route;
  if (synthetic()) {
    key += "|route_seed=" + strings::hex_u64(route_seed);
    key += "|duration_s=" + fmt17(duration_s);
    key += "|max_speed_mps=" + fmt17(max_speed_mps);
  }
  key += "|ambient_k=" + fmt17(ambient_k);
  key += "|uc_scale=" + fmt17(uc_scale);
  key += "|soe0=" + fmt17(soe0);
  return key;
}

std::string Grid::fingerprint() const {
  std::string desc = "otem.campaign.grid|seed=" + strings::hex_u64(seed);
  desc += "|methods=" + strings::join(methodologies, ",");
  desc += "|cycles=" + strings::join(cycles, ",");
  desc += "|synthetic=" + std::to_string(synthetic_routes);
  desc += "|duration=" + fmt17(min_duration_s) + ":" + fmt17(max_duration_s);
  desc += "|max_speed=" + fmt17(max_speed_mps);
  desc += "|ambients=";
  for (double a : ambients_k) desc += fmt17(a) + ",";
  desc += "|ambient_range=" + fmt17(ambient_min_k) + ":" +
          fmt17(ambient_max_k);
  desc += "|uc=";
  for (double s : uc_scales) desc += fmt17(s) + ",";
  desc += "|soe0=" + fmt17(soe0_min) + ":" + fmt17(soe0_max);
  return strings::hex_u64(fnv1a64(desc));
}

Json Grid::to_json() const {
  Json doc = Json::object();
  doc.set("fingerprint", fingerprint());
  doc.set("scenarios", size());
  doc.set("seed", static_cast<double>(seed));
  Json methods = Json::array();
  for (const std::string& m : methodologies) methods.push(m);
  doc.set("methodologies", std::move(methods));
  Json cyc = Json::array();
  for (const std::string& c : cycles) cyc.push(c);
  doc.set("cycles", std::move(cyc));
  doc.set("synthetic_routes", synthetic_routes);
  doc.set("min_duration_s", min_duration_s);
  doc.set("max_duration_s", max_duration_s);
  doc.set("max_speed_mps", max_speed_mps);
  if (ambients_k.empty()) {
    Json draw = Json::object();
    draw.set("drawn", true);
    draw.set("min_k", ambient_min_k);
    draw.set("max_k", ambient_max_k);
    doc.set("ambients", std::move(draw));
  } else {
    doc.set("ambients", Json::numbers(ambients_k));
  }
  doc.set("uc_scales", Json::numbers(uc_scales));
  doc.set("soe0_min", soe0_min);
  doc.set("soe0_max", soe0_max);
  return doc;
}

}  // namespace otem::campaign
