#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

/// \file
/// A small JSON reader for the server's responses (`/query` bodies,
/// `/write` and `/contains` results, `/metrics`). `/query` rows are the
/// bulk of every byte read, so `ParseQueryResponse` turns them straight
/// into one canonical string per row instead of a value tree.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A parsed JSON value (numbers as double).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Member `key` of an object, or null when absent / not an object.
  const Json* Get(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    auto it = object.find(std::string(key));
    return it == object.end() ? nullptr : &it->second;
  }
  /// Number at `key`, or `fallback`.
  double Number(std::string_view key, double fallback = 0) const {
    const Json* v = Get(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
};

/// Separator between cells of a canonical row; an unbound cell is
/// `kUnbound`. Neither byte occurs in node spellings.
inline constexpr char kCellSeparator = '\t';
inline constexpr std::string_view kUnbound = "\x01";

/// A decoded `/query` response body.
struct QueryResponse {
  std::vector<std::string> vars;
  std::vector<std::string> rows;  ///< Canonical rows, in arrival order.
  Json trailer;                   ///< Every other top-level member.
};

/// Parses one JSON document; false on malformed input.
bool ParseJson(std::string_view text, Json* out);

/// Parses a `/query` body ({"vars":[...],"rows":[[...],...],...}).
bool ParseQueryResponse(std::string_view text, QueryResponse* out);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
