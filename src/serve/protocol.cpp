#include "serve/protocol.h"

#include "common/error.h"

namespace otem::serve {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownMethod: return "unknown_method";
    case ErrorCode::kOversizedFrame: return "oversized_frame";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kUnknownSession: return "unknown_session";
    case ErrorCode::kSessionLimit: return "session_limit";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

namespace {

/// Override values arrive as JSON strings, numbers or booleans and all
/// become config strings — the same text a command-line key=value pair
/// would have carried.
std::string coerce_override(const std::string& key, const Json& value) {
  switch (value.type()) {
    case Json::Type::kString:
      return value.as_string();
    case Json::Type::kNumber: {
      // 17 significant digits keep full double fidelity and spell an
      // integral value below 1e17 as that integer, so keys parsed with
      // get_long ("repeats", "otem.horizon", seeds) stay parseable.
      std::string text;
      append_g17(text, value.as_number());
      return text;
    }
    case Json::Type::kBool:
      return value.as_bool() ? "true" : "false";
    default:
      throw SimError("override '" + key +
                     "' must be a string, number or boolean");
  }
}

}  // namespace

Request parse_request(const std::string& line) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const SimError& e) {
    throw SimError(std::string("invalid JSON frame: ") + e.what());
  }
  if (!doc.is_object()) throw SimError("request frame must be a JSON object");

  Request req;
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    throw SimError(std::string("request schema must be \"") + kSchema + "\"");
  }
  const Json* method = doc.find("method");
  if (method == nullptr || !method->is_string() ||
      method->as_string().empty()) {
    throw SimError("request 'method' must be a non-empty string");
  }
  req.method = method->as_string();

  if (const Json* id = doc.find("id")) req.id = *id;

  if (const Json* deadline = doc.find("deadline_ms")) {
    if (!deadline->is_number() || deadline->as_number() < 0.0)
      throw SimError("'deadline_ms' must be a non-negative number");
    req.deadline_ms = deadline->as_number();
  }

  if (const Json* cache = doc.find("cache")) {
    if (!cache->is_string() ||
        (cache->as_string() != "use" && cache->as_string() != "bypass"))
      throw SimError("'cache' must be \"use\" or \"bypass\"");
    req.cache_bypass = cache->as_string() == "bypass";
  }

  if (const Json* hex = doc.find("hex_doubles")) {
    if (!hex->is_bool()) throw SimError("'hex_doubles' must be a boolean");
    req.hex_doubles = hex->as_bool();
  }

  if (const Json* session = doc.find("session")) {
    if (!session->is_string() || session->as_string().empty())
      throw SimError("'session' must be a non-empty string");
    req.session = session->as_string();
  }

  if (const Json* p = doc.find("p_request_w")) {
    if (!p->is_number()) throw SimError("'p_request_w' must be a number");
    req.p_request_w = p->as_number();
    req.has_p_request = true;
  }

  if (const Json* overrides = doc.find("overrides")) {
    if (!overrides->is_object())
      throw SimError("'overrides' must be a JSON object");
    for (const auto& [key, value] : overrides->members()) {
      if (key.empty()) throw SimError("override keys must be non-empty");
      req.overrides.emplace_back(key, coerce_override(key, value));
    }
  }
  return req;
}

std::string build_request(const Request& request) {
  Json doc = Json::object();
  doc.set("schema", kSchema);
  doc.set("method", request.method);
  if (!request.id.is_null()) doc.set("id", request.id);
  if (request.deadline_ms > 0.0) doc.set("deadline_ms", request.deadline_ms);
  if (request.cache_bypass) doc.set("cache", "bypass");
  if (request.hex_doubles) doc.set("hex_doubles", true);
  if (!request.session.empty()) doc.set("session", request.session);
  if (request.has_p_request) doc.set("p_request_w", request.p_request_w);
  if (!request.overrides.empty()) {
    Json overrides = Json::object();
    for (const auto& [key, value] : request.overrides)
      overrides.set(key, value);
    doc.set("overrides", std::move(overrides));
  }
  return doc.dump(0);
}

std::string build_ok_response(const Json& id, bool cached,
                              const std::string& result_json) {
  // Hand-assembled so `result_json` lands in the envelope byte for
  // byte; a Json round-trip could legally re-format numbers, and the
  // cached-result identity guarantee forbids that.
  std::string out = "{\"schema\":\"";
  out += kSchema;
  out += "\",\"id\":";
  out += id.dump(0);
  out += ",\"ok\":true,\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"result\":";
  out += result_json;
  out += '}';
  return out;
}

std::string build_error_response(const Json& id, ErrorCode code,
                                 const std::string& message) {
  Json doc = Json::object();
  doc.set("schema", kSchema);
  doc.set("id", id);
  doc.set("ok", false);
  doc.set("error", to_string(code));
  doc.set("message", message);
  return doc.dump(0);
}

}  // namespace otem::serve
