#include "cimflow/service/protocol.hpp"

namespace cimflow::service {

Request parse_request(const std::string& line) {
  const Json doc = Json::parse(line);  // throws Error(kParseError) with offset
  if (!doc.is_object()) {
    raise(ErrorCode::kInvalidArgument, "request must be a JSON object");
  }
  Request request;
  if (doc.contains("id")) {
    const Json& id = doc.at("id");
    if (!id.is_number()) {
      raise(ErrorCode::kInvalidArgument, "request \"id\" must be a number");
    }
    request.id = id.as_int();
  }
  if (!doc.contains("verb") || !doc.at("verb").is_string() ||
      doc.at("verb").as_string().empty()) {
    raise(ErrorCode::kInvalidArgument,
          "request is missing the \"verb\" field "
          "(evaluate, sweep, search, stats, or shutdown)");
  }
  request.verb = doc.at("verb").as_string();
  if (doc.contains("params")) {
    if (!doc.at("params").is_object()) {
      raise(ErrorCode::kInvalidArgument, "request \"params\" must be an object");
    }
    request.params = doc.at("params");
  }
  return request;
}

Json progress_event(std::int64_t id, std::size_t completed, std::size_t total) {
  return Json(JsonObject{{"event", Json("progress")},
                         {"id", Json(id)},
                         {"completed", Json(static_cast<std::int64_t>(completed))},
                         {"total", Json(static_cast<std::int64_t>(total))}});
}

Json result_event(std::int64_t id, const Json& body) {
  JsonObject o = body.as_object();
  o["event"] = Json("result");
  o["id"] = Json(id);
  return Json(std::move(o));
}

Json error_event(std::int64_t id, ErrorCode code, const std::string& message) {
  return Json(JsonObject{
      {"event", Json("error")},
      {"id", Json(id)},
      {"error", Json(JsonObject{{"code", Json(std::string(to_string(code)))},
                                {"message", Json(message)}})}});
}

std::string wire_line(const Json& event) { return event.dump_line() + "\n"; }

}  // namespace cimflow::service
