// methodology_registry.h — name -> factory registry for management
// strategies.
//
// Every runner used to hand-construct its controllers (at one point 17
// binaries included the methodology headers directly); the registry
// makes "which strategy" a plain string resolved at run time, so the
// CLI, the scenario engine, the benches and the campaign engine all
// share one construction path. A factory receives the SystemSpec it must
// control plus the experiment Config, from which it reads its own
// parameter namespace ("otem.*", "dual.*", "cooling.*", "forecast").
//
// The built-ins register themselves: each methodology's translation
// unit defines a registration hook (detail::register_*_methodology)
// that instance() invokes on first use. The hooks are explicit function
// calls rather than static-initializer objects because the methodologies
// live in a static library — the linker would drop an object file whose
// only referenced symbol is an unexported initializer, and registration
// would silently depend on what else the binary happened to use.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/methodology.h"
#include "core/system_spec.h"

namespace otem::core {

class MethodologyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Methodology>(
      const SystemSpec&, const Config&)>;

  /// The process-wide registry with the built-ins installed.
  static MethodologyRegistry& instance();

  /// Register a factory under `name`; throws SimError on duplicates.
  void add(const std::string& name, Factory factory);

  bool contains(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// Instantiate by name; throws SimError listing the registered names
  /// when `name` is unknown.
  std::unique_ptr<Methodology> create(const SystemSpec& spec,
                                      const Config& cfg,
                                      const std::string& name) const;

 private:
  std::map<std::string, Factory> factories_;
};

/// Shorthand for MethodologyRegistry::instance().create(...).
std::unique_ptr<Methodology> make_methodology(const std::string& name,
                                              const SystemSpec& spec,
                                              const Config& cfg);

namespace detail {
// Registration hooks, one per built-in translation unit.
void register_parallel_methodology(MethodologyRegistry& registry);
void register_cooling_methodology(MethodologyRegistry& registry);
void register_dual_methodology(MethodologyRegistry& registry);
void register_otem_methodologies(MethodologyRegistry& registry);
}  // namespace detail

}  // namespace otem::core
