#include "json.h"

#include <cstdlib>

namespace perfbench {
namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

  bool Value(Json* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') {
      out->kind = Json::Kind::kArray;
      ++pos_;
      if (Consume(']')) return true;
      do {
        out->array.emplace_back();
        if (!Value(&out->array.back())) return false;
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    return Number(out);
  }

  /// Parses an object; `member` may claim a key by returning true after
  /// consuming its value itself.
  template <typename Claim>
  bool Members(Claim&& member, Json* rest) {
    rest->kind = Json::Kind::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      std::string key;
      SkipSpace();
      if (!String(&key) || !Consume(':')) return false;
      bool claimed = false;
      if (!member(key, &claimed)) return false;
      if (!claimed && !Value(&rest->object[key])) return false;
    } while (Consume(','));
    return Consume('}');
  }

  bool Object(Json* out) {
    return Members([](const std::string&, bool*) { return true; }, out);
  }

  /// An array of rows, each an array of strings or nulls, appended as
  /// canonical row strings.
  bool Rows(std::vector<std::string>* rows) {
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    std::string cell;
    do {
      if (!Consume('[')) return false;
      std::string row;
      if (!Consume(']')) {
        bool first = true;
        do {
          if (!first) row += kCellSeparator;
          first = false;
          SkipSpace();
          if (Literal("null")) {
            row += kUnbound;
          } else {
            cell.clear();
            if (!String(&cell)) return false;
            row += cell;
          }
        } while (Consume(','));
        if (!Consume(']')) return false;
      }
      rows->push_back(std::move(row));
    } while (Consume(','));
    return Consume(']');
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char e = text_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out->push_back(e); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(), nullptr, 16));
          pos_ += 4;
          // Spellings here are ASCII; wider code points keep a marker.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Number(Json* out) {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[pos_]) != std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Json::Kind::kNumber;
    out->number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out) {
  Reader reader(text);
  return reader.Value(out) && reader.AtEnd();
}

bool ParseQueryResponse(std::string_view text, QueryResponse* out) {
  Reader reader(text);
  auto member = [&](const std::string& key, bool* claimed) {
    if (key == "rows") {
      *claimed = true;
      return reader.Rows(&out->rows);
    }
    if (key == "vars") {
      *claimed = true;
      Json vars;
      if (!reader.Value(&vars) || vars.kind != Json::Kind::kArray) return false;
      for (const Json& v : vars.array) out->vars.push_back(v.string);
    }
    return true;
  };
  return reader.Members(member, &out->trailer) && reader.AtEnd();
}

}  // namespace perfbench
