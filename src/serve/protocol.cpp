#include "serve/protocol.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace presat::serve {

namespace {

// Recursive-descent JSON parser over one line. Tracks a shared field budget
// (objects + arrays combined) and the nesting depth, so a hostile request
// cannot balloon the in-memory document past the protocol limits.
class JsonParser {
 public:
  JsonParser(const std::string& text, std::string& error) : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    if (!parseValue(out, 0)) return false;
    skipSpace();
    if (pos_ != text_.size()) return fail("trailing garbage after JSON document");
    return true;
  }

 private:
  bool fail(const std::string& why) {
    error_ = why + " (byte " + std::to_string(pos_) + ")";
    return false;
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool chargeField() {
    if (++fields_ > kMaxFields) {
      return fail("too many fields (limit " + std::to_string(kMaxFields) + ")");
    }
    return true;
  }

  bool parseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep (limit " + std::to_string(kMaxDepth) + ")");
    skipSpace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return parseObject(out, depth);
    if (c == '[') return parseArray(out, depth);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parseString(out.text);
    }
    if (c == 't' || c == 'f') return parseKeyword(out, c == 't');
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) return fail("bad keyword");
      pos_ += 4;
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return parseNumber(out);
  }

  bool parseKeyword(JsonValue& out, bool value) {
    const char* word = value ? "true" : "false";
    size_t len = value ? 4 : 5;
    if (text_.compare(pos_, len, word) != 0) return fail("bad keyword");
    pos_ += len;
    out.kind = JsonValue::Kind::kBool;
    out.boolean = value;
    return true;
  }

  bool parseNumber(JsonValue& out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) digits = true;
      ++pos_;
    }
    if (!digits) {
      pos_ = start;
      return fail("expected a value");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.text = text_.substr(start, pos_ - start);
    out.number = std::strtod(out.text.c_str(), nullptr);
    return true;
  }

  bool parseString(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape digit");
          }
          // Encode as UTF-8 (surrogate pairs unsupported: the protocol is
          // ASCII-centric; reject rather than emit broken text).
          if (code >= 0xD800 && code <= 0xDFFF) return fail("surrogate \\u escapes unsupported");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail(std::string("bad escape '\\") + esc + "'");
      }
    }
    return fail("unterminated string");
  }

  bool parseObject(JsonValue& out, int depth) {
    if (!consume('{')) return false;
    out.kind = JsonValue::Kind::kObject;
    skipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!chargeField()) return false;
      std::string k;
      skipSpace();
      if (!parseString(k)) return false;
      if (out.find(k) != nullptr) return fail("duplicate key \"" + k + "\"");
      if (!consume(':')) return false;
      JsonValue v;
      if (!parseValue(v, depth + 1)) return false;
      out.fields.emplace_back(std::move(k), std::move(v));
      skipSpace();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(JsonValue& out, int depth) {
    if (!consume('[')) return false;
    out.kind = JsonValue::Kind::kArray;
    skipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!chargeField()) return false;
      JsonValue v;
      if (!parseValue(v, depth + 1)) return false;
      out.items.push_back(std::move(v));
      skipSpace();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  const std::string& text_;
  std::string& error_;
  size_t pos_ = 0;
  size_t fields_ = 0;
};

bool badRequest(ServeError& error, int lineNo, const std::string& message) {
  error.code = "bad_request";
  error.message = message;
  error.line = lineNo;
  return false;
}

// Field extraction helpers: each checks the JSON kind and reports a typed
// bad_request on mismatch.
bool takeString(const JsonValue& v, const std::string& key, std::string& out,
                ServeError& error, int lineNo) {
  if (v.kind != JsonValue::Kind::kString) {
    return badRequest(error, lineNo, "field \"" + key + "\" must be a string");
  }
  out = v.text;
  return true;
}

bool takeBool(const JsonValue& v, const std::string& key, bool& out, ServeError& error,
              int lineNo) {
  if (v.kind != JsonValue::Kind::kBool) {
    return badRequest(error, lineNo, "field \"" + key + "\" must be a boolean");
  }
  out = v.boolean;
  return true;
}

bool takeU64(const JsonValue& v, const std::string& key, uint64_t& out, ServeError& error,
             int lineNo) {
  if (v.kind != JsonValue::Kind::kNumber || v.number < 0 ||
      v.text.find_first_of(".eE") != std::string::npos) {
    return badRequest(error, lineNo, "field \"" + key + "\" must be a non-negative integer");
  }
  out = std::strtoull(v.text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool parseJson(const std::string& line, JsonValue& out, std::string& error) {
  return JsonParser(line, error).parse(out);
}

void JsonObjectWriter::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += '"';
  body_ += jsonEscape(k);
  body_ += "\":";
}

void JsonObjectWriter::field(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  body_ += jsonEscape(value);
  body_ += '"';
}

void JsonObjectWriter::field(const std::string& k, const char* value) {
  field(k, std::string(value));
}

void JsonObjectWriter::fieldRaw(const std::string& k, const std::string& rawJson) {
  key(k);
  body_ += rawJson;
}

void JsonObjectWriter::field(const std::string& k, uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonObjectWriter::field(const std::string& k, int value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonObjectWriter::field(const std::string& k, double value) {
  key(k);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  body_ += buf;
}

void JsonObjectWriter::field(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
}

bool parseRequest(const std::string& line, int lineNo, ServeRequest& out, ServeError& error) {
  if (line.size() > kMaxLineBytes) {
    error.code = "parse";
    error.message = "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes";
    error.line = lineNo;
    return false;
  }
  JsonValue doc;
  std::string parseError;
  if (!parseJson(line, doc, parseError)) {
    error.code = "parse";
    error.message = parseError;
    error.line = lineNo;
    return false;
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    return badRequest(error, lineNo, "request must be a JSON object");
  }

  // Pull id and op first so later diagnostics can echo the id.
  const JsonValue* idField = doc.find("id");
  if (idField != nullptr && idField->kind == JsonValue::Kind::kString) out.id = idField->text;

  const JsonValue* opField = doc.find("op");
  if (opField == nullptr || opField->kind != JsonValue::Kind::kString) {
    return badRequest(error, lineNo, "missing string field \"op\"");
  }
  const std::string& opName = opField->text;
  if (opName == "preimage") out.op = ServeOp::kPreimage;
  else if (opName == "ping") out.op = ServeOp::kPing;
  else if (opName == "version") out.op = ServeOp::kVersion;
  else if (opName == "stats") out.op = ServeOp::kStats;
  else if (opName == "cancel") out.op = ServeOp::kCancel;
  else if (opName == "shutdown") out.op = ServeOp::kShutdown;
  else return badRequest(error, lineNo, "unknown op \"" + opName + "\"");

  if (out.id.empty() && out.op != ServeOp::kShutdown) {
    return badRequest(error, lineNo, "missing string field \"id\"");
  }

  for (const auto& [k, v] : doc.fields) {
    if (k == "id" || k == "op") continue;
    bool good = true;
    if (k == "gen") good = takeString(v, k, out.gen, error, lineNo);
    else if (k == "bench") good = takeString(v, k, out.bench, error, lineNo);
    else if (k == "target") good = takeString(v, k, out.target, error, lineNo);
    else if (k == "method") good = takeString(v, k, out.method, error, lineNo);
    else if (k == "class") good = takeString(v, k, out.budgetClass, error, lineNo);
    else if (k == "target_id") good = takeString(v, k, out.targetId, error, lineNo);
    else if (k == "project") good = takeBool(v, k, out.project, error, lineNo);
    else if (k == "compress") good = takeBool(v, k, out.compress, error, lineNo);
    else if (k == "cache") good = takeBool(v, k, out.cache, error, lineNo);
    else if (k == "cert") good = takeBool(v, k, out.cert, error, lineNo);
    else if (k == "max_cubes") good = takeU64(v, k, out.maxCubes, error, lineNo);
    else if (k == "timeout_ms") good = takeU64(v, k, out.timeoutMs, error, lineNo);
    else if (k == "mem_limit_mb") good = takeU64(v, k, out.memLimitMb, error, lineNo);
    else if (k == "conflict_limit") good = takeU64(v, k, out.conflictLimit, error, lineNo);
    else return badRequest(error, lineNo, "unknown field \"" + k + "\"");
    if (!good) return false;
  }

  if (!out.budgetClass.empty() && out.budgetClass != "interactive" &&
      out.budgetClass != "batch") {
    return badRequest(error, lineNo, "field \"class\" must be \"interactive\" or \"batch\"");
  }
  if (out.op == ServeOp::kPreimage) {
    if (out.gen.empty() == out.bench.empty()) {
      return badRequest(error, lineNo, "preimage needs exactly one of \"gen\" / \"bench\"");
    }
    if (out.target.empty()) {
      return badRequest(error, lineNo, "preimage needs a \"target\" cube");
    }
  }
  if (out.op == ServeOp::kCancel && out.targetId.empty()) {
    return badRequest(error, lineNo, "cancel needs \"target_id\"");
  }
  return true;
}

std::string errorResponse(const std::string& id, const ServeError& error) {
  JsonObjectWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("status", "error");
  JsonObjectWriter e;
  e.field("code", error.code);
  e.field("message", error.message);
  if (error.line > 0) e.field("line", error.line);
  w.fieldRaw("error", e.str());
  return w.str();
}

}  // namespace presat::serve
