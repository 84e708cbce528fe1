#include "core/plant_state.h"

#include <cstdio>

#include "common/error.h"

namespace otem::core {

namespace {
void require_within(const std::string& key, double v, double lo, double hi,
                    const char* unit) {
  if (v >= lo && v <= hi) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " = %.12g is outside the plant's domain [%g, %g] %s", v, lo,
                hi, unit);
  throw SimError(key + buf);
}
}  // namespace

void require_temperature_k(const std::string& key, double kelvin) {
  require_within(key, kelvin, kMinTemperatureK, kMaxTemperatureK, "K");
}

void require_percent(const std::string& key, double percent) {
  require_within(key, percent, 0.0, 100.0, "%");
}

}  // namespace otem::core
