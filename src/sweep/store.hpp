// The persisted per-scenario result store.
//
// A sweep (safety, termination or exploration) can stream one flat record
// per scenario into a `RecordSink`.  Records are appended in
// scenario-enumeration order by the deterministic fold, which runs on
// the calling thread while the workers go on (sweep/ordered.hpp), so a
// store's bytes are a pure function of the sweep options: byte-identical
// across runs, thread counts, and batch sizes.  That property is what
// makes two stores diffable across commits (`tools/sweep_diff.py`):
// a changed line means scenario behaviour changed, not scheduling.
//
// Serialization is canonical JSONL: one JSON object per line, fields in
// the exact order the producer added them, no whitespace, strings
// escaped per RFC 8259 (control characters as \u00XX).  Every record
// carries a unique "key" field — the scenario key — which diff tooling
// uses as the join column.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace rlt::sweep {

/// One flat record under construction.  Field order is insertion order;
/// the producer is responsible for a stable field set per record kind.
class Record {
 public:
  Record& str(std::string_view field, std::string_view value);
  Record& u64(std::string_view field, std::uint64_t value);
  Record& hex(std::string_view field, std::uint64_t value);  ///< "0x…" string
  Record& boolean(std::string_view field, bool value);

  /// The closed single-line JSON object (no trailing newline).
  [[nodiscard]] std::string json() const;

  /// The fields without the enclosing braces (`"a":1,"b":"x"`), for
  /// sinks that write the braces around it themselves.
  [[nodiscard]] std::string_view body() const noexcept { return body_; }

 private:
  void begin_field(std::string_view field);
  std::string body_;  ///< Accumulated `"a":1,"b":"x"` payload.
};

/// Escapes `s` as a JSON string literal (including the quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Read one field back from a record line Record wrote (the shard merge
/// and the --replay path).  Each finds the field by its `"name":`
/// needle, which never matches inside a value because every quote in a
/// value is escaped.  nullopt when the field is absent or not of the
/// asked type: field_str unescapes fully, field_u64 rejects values
/// above UINT64_MAX, field_hex reads the "0x…" form hex() writes.
[[nodiscard]] std::optional<std::string> field_str(std::string_view line,
                                                   std::string_view name);
[[nodiscard]] std::optional<std::uint64_t> field_u64(std::string_view line,
                                                     std::string_view name);
[[nodiscard]] std::optional<bool> field_bool(std::string_view line,
                                             std::string_view name);
[[nodiscard]] std::optional<std::uint64_t> field_hex(std::string_view line,
                                                     std::string_view name);

/// Reads fields into variables, the mirror of Record:
///   FieldReader(line).u64("steps", r.steps).str("detail", r.detail).ok()
/// ok() turns false once a field is absent, of another type, or out of
/// its variable's range; such a field leaves its variable untouched.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line) : line_(line) {}
  FieldReader& str(std::string_view name, std::string& out) {
    return take(field_str(line_, name), out);
  }
  template <class Int>
  FieldReader& u64(std::string_view name, Int& out) {
    const std::optional<std::uint64_t> v = field_u64(line_, name);
    return take(v && std::in_range<Int>(*v)
                    ? std::optional<Int>(static_cast<Int>(*v))
                    : std::nullopt,
                out);
  }
  FieldReader& hex(std::string_view name, std::uint64_t& out) {
    return take(field_hex(line_, name), out);
  }
  FieldReader& boolean(std::string_view name, bool& out) {
    return take(field_bool(line_, name), out);
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  template <class T>
  FieldReader& take(std::optional<T> v, T& out) {
    if (v) out = std::move(*v);
    ok_ = ok_ && v.has_value();
    return *this;
  }
  std::string_view line_;
  bool ok_ = true;
};

/// Where per-scenario records go.  `append` is called in enumeration
/// order, exactly once per scenario, from one thread (the sweep's fold)
/// while later scenarios may still be running.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void append(const Record& r) = 0;
};

/// Collects the store in memory (tests: byte-stability assertions).
class StringSink final : public RecordSink {
 public:
  void append(const Record& r) override;
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

 private:
  std::string text_;
};

/// Writes the store to a file, one record per line.  Throws
/// std::runtime_error if the file cannot be opened; `close()` flushes
/// and throws on write failure (call it before trusting the store).
class JsonlFileSink final : public RecordSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  void append(const Record& r) override;
  void close();

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace rlt::sweep
