// Minimal JSON value + recursive-descent parser.
//
// Exists for the observability layer's own consumers: the golden-trace
// tests need a schema-aware comparator (field order must not matter, values
// must), and the conformance suite validates that exported Chrome traces
// and metrics snapshots are well-formed trace-event/JSON documents. It is a
// reader for JSON *we* emit plus hand-written goldens — not a general
// internet-facing parser.

#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <map>
#include <string>
#include <vector>

namespace rubberband {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses one JSON document (object, array, or scalar) with optional
  // trailing whitespace. Throws std::invalid_argument on malformed input
  // (arrays and objects nested more than 64 deep included), with a byte
  // offset in the message.
  static JsonValue Parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  bool Has(const std::string& key) const { return object_.count(key) > 0; }
  // Object member access; throws std::out_of_range on a missing key.
  const JsonValue& at(const std::string& key) const { return object_.at(key); }
  const JsonValue& at(size_t index) const { return array_.at(index); }
  size_t size() const { return type_ == Type::kArray ? array_.size() : object_.size(); }

  // Structural equality. Objects are key-sorted maps, so two documents that
  // differ only in member order compare equal — exactly the "schema-aware,
  // ignores field order but not values" contract the golden tests want.
  bool operator==(const JsonValue& other) const;
  bool operator!=(const JsonValue& other) const { return !(*this == other); }

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  // Mutators for document building (the wire protocol assembles responses
  // as JsonValue trees). Set converts this value to an object if needed;
  // Append converts it to an array.
  JsonValue& Set(const std::string& key, JsonValue value);
  JsonValue& Append(JsonValue value);

  // Serializes the document. Objects emit key-sorted members (they are
  // stored in a sorted map), so output is deterministic; integral numbers
  // within the exact double range print without a decimal point.
  std::string ToJson() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

// Escapes a string for embedding in a JSON document (quotes not included).
std::string JsonEscape(const std::string& raw);

}  // namespace rubberband

#endif  // SRC_OBS_JSON_H_
