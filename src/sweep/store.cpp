#include "sweep/store.hpp"

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

}  // namespace

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
