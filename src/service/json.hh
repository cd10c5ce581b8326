/**
 * @file
 * Minimal strict JSON layer for the scenario service — no external
 * dependencies.
 *
 * Value is a tagged tree (null/bool/number/string/array/object);
 * objects preserve insertion order and never hold duplicate keys
 * (set() replaces, the parser rejects). parse() is a strict RFC
 * 8259 recursive-descent parser: no comments, no trailing commas,
 * full string escapes including surrogate pairs, a nesting-depth
 * limit, and nothing but whitespace allowed after the value.
 *
 * Two serializers:
 *  - dump()      compact, members in insertion order;
 *  - canonical() compact, object keys byte-sorted at every level
 *    (an object built in byte order is written without sorting).
 * Both print numbers with formatDouble() — the shortest "%.Ng" form
 * that reads back as the identical double — so equal values always
 * serialize to equal bytes and every number survives a
 * serialize/parse round trip bit-exactly. fnv1a() over canonical()
 * is the scenario cache key.
 */

#ifndef GPM_SERVICE_JSON_HH
#define GPM_SERVICE_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/expected.hh"

namespace gpm::json
{

namespace detail
{
struct Parser;
}

class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    using Member = std::pair<std::string, Value>;
    using Array = std::vector<Value>;
    using Object = std::vector<Member>;

    Value() : v(nullptr) {}
    Value(std::nullptr_t) : v(nullptr) {}
    Value(bool b) : v(b) {}
    Value(double d) : v(d) {}
    Value(int i) : v(static_cast<double>(i)) {}
    Value(unsigned i) : v(static_cast<double>(i)) {}
    Value(long i) : v(static_cast<double>(i)) {}
    Value(unsigned long i) : v(static_cast<double>(i)) {}
    Value(long long i) : v(static_cast<double>(i)) {}
    Value(unsigned long long i) : v(static_cast<double>(i)) {}
    Value(const char *s) : v(std::string(s)) {}
    Value(std::string s) : v(std::move(s)) {}

    /** An empty array value. */
    static Value
    array()
    {
        Value x;
        x.v = Array{};
        return x;
    }

    /** An empty object value. */
    static Value
    object()
    {
        Value x;
        x.v = Object{};
        return x;
    }

    Type type() const;
    bool isNull() const { return type() == Type::Null; }
    bool isBool() const { return type() == Type::Bool; }
    bool isNumber() const { return type() == Type::Number; }
    bool isString() const { return type() == Type::String; }
    bool isArray() const { return type() == Type::Array; }
    bool isObject() const { return type() == Type::Object; }
    /** null, bool, number or string. */
    bool isScalar() const { return !isArray() && !isObject(); }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Array append (value must be an array). */
    void push(Value item);

    /** Object append-or-replace (value must be an object). */
    void set(std::string key, Value item);

    /** Object member lookup; nullptr when absent (or not an
     *  object). */
    const Value *find(std::string_view key) const;

    /** Compact serialization, insertion order. */
    std::string dump() const;

    /** Compact serialization with byte-sorted object keys. */
    std::string canonical() const;

    /** canonical(), appended to @p out. */
    void canonical(std::string &out) const;

  private:
    /** The parser appends members it has checked for duplicates
     *  itself, without set()'s scan. */
    friend struct detail::Parser;

    void write(std::string &out, bool sorted) const;

    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        v;
};

/** Where and why parsing failed. */
struct ParseError
{
    std::size_t offset = 0;
    std::string message;
};

/** Parse exactly one JSON value spanning all of @p text. */
Expected<Value, ParseError> parse(std::string_view text);

/**
 * Append the shortest "%.Ng" printf form of @p d that reads back as
 * the bit-identical double to @p out; "null" for non-finite inputs
 * (which valid JSON cannot carry).
 *
 * The search starts at N = the digit count of std::to_chars's
 * shortest form, since no shorter string round-trips, and stops at
 * the first N whose string std::from_chars reads back as d. Each
 * candidate is std::to_chars(general, N), which the standard
 * defines as printf("%.*g", N) in the C locale, so the bytes are
 * the ones snprintf would print. The read-back check is needed: at
 * a power of two the gap below d is half the gap above, so the
 * correctly rounded N-digit string can miss d even though some
 * other N-digit string hits it (0x1p-1017 prints
 * 7.120236347223044e-307 at 16 digits, which reads back as a
 * different double), and then N + 1 digits are needed.
 */
void formatDouble(std::string &out, double d);

/** FNV-1a 64-bit hash of @p bytes. */
std::uint64_t fnv1a(std::string_view bytes);

} // namespace gpm::json

#endif // GPM_SERVICE_JSON_HH
