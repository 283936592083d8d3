#include "sweep/store.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "util/append.hpp"

namespace rlt::sweep {

namespace {

/// Appends `s` to `out` as a JSON string literal (including the quotes),
/// copying each run of characters that need no escape in one append.
void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // Start of the pending unescaped run.
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

/// Offset of `name`'s value in `line`, or npos when the field is absent.
std::size_t value_at(std::string_view line, std::string_view name) {
  const std::string needle = "\"" + std::string(name) + "\":";
  const std::size_t at = line.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

}  // namespace

std::optional<std::string> field_str(std::string_view line,
                                     std::string_view name) {
  std::size_t i = value_at(line, name);
  if (i >= line.size() || line[i] != '"') return std::nullopt;
  std::string out;
  for (++i; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= line.size()) return std::nullopt;
    switch (line[i]) {
      case '"': case '\\': case '/': out += line[i]; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // The writer \u-escapes control characters only; anything wider
        // is not a record this repo produced.
        if (i + 5 > line.size()) return std::nullopt;
        unsigned v = 0;
        const char* end = line.data() + i + 5;
        const auto [p, ec] = std::from_chars(line.data() + i + 1, end, v, 16);
        if (ec != std::errc() || p != end || v > 0xFF) return std::nullopt;
        out += static_cast<char>(v);
        i += 4;
        break;
      }
      default: return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> field_u64(std::string_view line,
                                       std::string_view name) {
  const std::size_t i = value_at(line, name);
  if (i >= line.size()) return std::nullopt;
  std::uint64_t v = 0;
  // Digits only (no sign); out of range above UINT64_MAX.
  if (std::from_chars(line.data() + i, line.data() + line.size(), v).ec !=
      std::errc()) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> field_bool(std::string_view line, std::string_view name) {
  const std::size_t i = value_at(line, name);
  if (i >= line.size()) return std::nullopt;
  if (line.compare(i, 4, "true") == 0) return true;
  if (line.compare(i, 5, "false") == 0) return false;
  return std::nullopt;
}

std::optional<std::uint64_t> field_hex(std::string_view line,
                                       std::string_view name) {
  const std::optional<std::string> s = field_str(line, name);
  if (!s || s->size() < 3 || s->compare(0, 2, "0x") != 0) return std::nullopt;
  std::uint64_t v = 0;
  const char* end = s->data() + s->size();
  const auto [p, ec] = std::from_chars(s->data() + 2, end, v, 16);
  if (ec != std::errc() || p != end) return std::nullopt;
  return v;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

void Record::begin_field(std::string_view field) {
  if (!body_.empty()) body_ += ',';
  append_escaped(body_, field);
  body_ += ':';
}

Record& Record::str(std::string_view field, std::string_view value) {
  begin_field(field);
  append_escaped(body_, value);
  return *this;
}

Record& Record::u64(std::string_view field, std::uint64_t value) {
  begin_field(field);
  util::append_int(body_, value);
  return *this;
}

Record& Record::hex(std::string_view field, std::uint64_t value) {
  // "0x" + 16 hex digits needs no escaping.
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "\"0x%016llx\"",
                              static_cast<unsigned long long>(value));
  begin_field(field);
  body_.append(buf, static_cast<std::size_t>(n));
  return *this;
}

Record& Record::boolean(std::string_view field, bool value) {
  begin_field(field);
  body_ += value ? "true" : "false";
  return *this;
}

std::string Record::json() const {
  std::string out;
  out.reserve(body_.size() + 2);
  out += '{';
  out += body_;
  out += '}';
  return out;
}

void StringSink::append(const Record& r) {
  text_ += '{';
  text_ += r.body();
  text_ += "}\n";
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : path_(path), out_(path, std::ios::out | std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("cannot open result store '" + path +
                             "' for writing");
  }
}

void JsonlFileSink::append(const Record& r) {
  const std::string_view body = r.body();
  out_.put('{');
  out_.write(body.data(), static_cast<std::streamsize>(body.size()));
  out_.write("}\n", 2);
}

void JsonlFileSink::close() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("write to result store '" + path_ + "' failed");
  }
  out_.close();
}

}  // namespace rlt::sweep
