#include "service/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_set>

#include "util/logging.hh"

namespace gpm::json
{

Value::Type
Value::type() const
{
    switch (v.index()) {
      case 0:
        return Type::Null;
      case 1:
        return Type::Bool;
      case 2:
        return Type::Number;
      case 3:
        return Type::String;
      case 4:
        return Type::Array;
      default:
        return Type::Object;
    }
}

bool
Value::asBool() const
{
    GPM_ASSERT(isBool());
    return std::get<bool>(v);
}

double
Value::asNumber() const
{
    GPM_ASSERT(isNumber());
    return std::get<double>(v);
}

const std::string &
Value::asString() const
{
    GPM_ASSERT(isString());
    return std::get<std::string>(v);
}

const Value::Array &
Value::asArray() const
{
    GPM_ASSERT(isArray());
    return std::get<Array>(v);
}

const Value::Object &
Value::asObject() const
{
    GPM_ASSERT(isObject());
    return std::get<Object>(v);
}

void
Value::push(Value item)
{
    GPM_ASSERT(isArray());
    std::get<Array>(v).push_back(std::move(item));
}

void
Value::set(std::string key, Value item)
{
    GPM_ASSERT(isObject());
    auto &obj = std::get<Object>(v);
    for (auto &m : obj) {
        if (m.first == key) {
            m.second = std::move(item);
            return;
        }
    }
    obj.emplace_back(std::move(key), std::move(item));
}

const Value *
Value::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &m : std::get<Object>(v))
        if (m.first == key)
            return &m.second;
    return nullptr;
}

void
formatDouble(std::string &out, double d)
{
    if (!std::isfinite(d)) {
        out += "null";
        return;
    }
    // No string shorter than the shortest round-trip form parses
    // back to d, so the search starts at its digit count.
    char buf[32];
    auto shortest = std::to_chars(buf, buf + sizeof(buf), d,
                                  std::chars_format::scientific);
    int prec = 0;
    for (const char *c = buf; c != shortest.ptr && *c != 'e'; c++)
        prec += *c >= '0' && *c <= '9';
    char *end = buf;
    for (; prec <= 17; prec++) {
        end = std::to_chars(buf, buf + sizeof(buf), d,
                            std::chars_format::general, prec)
                  .ptr;
        double back = 0.0;
        std::from_chars(buf, end, back);
        if (back == d)
            break;
    }
    out.append(buf, end);
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h;
}

static void
writeEscaped(std::string &out, const std::string &s)
{
    out += '"';
    // Each run of bytes that need no escape goes out in one append.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); i++) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          }
        }
    }
    out.append(s, run);
    out += '"';
}

void
Value::write(std::string &out, bool sorted) const
{
    switch (type()) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += std::get<bool>(v) ? "true" : "false";
        break;
      case Type::Number:
        formatDouble(out, std::get<double>(v));
        break;
      case Type::String:
        writeEscaped(out, std::get<std::string>(v));
        break;
      case Type::Array: {
        out += '[';
        const auto &arr = std::get<Array>(v);
        for (std::size_t i = 0; i < arr.size(); i++) {
            if (i)
                out += ',';
            arr[i].write(out, sorted);
        }
        out += ']';
        break;
      }
      case Type::Object: {
        const auto &obj = std::get<Object>(v);
        // An object whose members are already in byte order (the
        // builders set them that way) is written as it stands.
        std::vector<const Member *> ms;
        if (sorted &&
            !std::is_sorted(obj.begin(), obj.end(),
                            [](const Member &a, const Member &b) {
                                return a.first < b.first;
                            })) {
            ms.reserve(obj.size());
            for (const auto &m : obj)
                ms.push_back(&m);
            std::sort(ms.begin(), ms.end(),
                      [](const Member *a, const Member *b) {
                          return a->first < b->first;
                      });
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); i++) {
            const Member &m = ms.empty() ? obj[i] : *ms[i];
            if (i)
                out += ',';
            writeEscaped(out, m.first);
            out += ':';
            m.second.write(out, sorted);
        }
        out += '}';
        break;
      }
    }
}

std::string
Value::dump() const
{
    std::string out;
    write(out, false);
    return out;
}

std::string
Value::canonical() const
{
    std::string out;
    write(out, true);
    return out;
}

void
Value::canonical(std::string &out) const
{
    write(out, true);
}

namespace detail
{

/** Recursive-descent parser state over the input span. */
struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    /** Deep nesting is an attack surface, not a use case. */
    static constexpr int maxDepth = 64;

    std::optional<ParseError> err;

    bool
    fail(std::size_t at, std::string msg)
    {
        if (!err)
            err = ParseError{at, std::move(msg)};
        return false;
    }

    bool atEnd() const { return pos >= text.size(); }
    char peek() const { return text[pos]; }

    void
    skipWs()
    {
        while (!atEnd() && (text[pos] == ' ' || text[pos] == '\t' ||
                            text[pos] == '\n' || text[pos] == '\r'))
            pos++;
    }

    bool
    consume(char c)
    {
        if (atEnd() || text[pos] != c)
            return fail(pos, std::string("expected '") + c + "'");
        pos++;
        return true;
    }

    bool
    consumeWord(std::string_view w)
    {
        if (text.substr(pos, w.size()) != w)
            return fail(pos, "invalid literal");
        pos += w.size();
        return true;
    }

    bool
    parseHex4(unsigned &out)
    {
        if (pos + 4 > text.size())
            return fail(pos, "truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; i++) {
            char c = text[pos + i];
            unsigned d;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (c >= 'a' && c <= 'f')
                d = 10 + c - 'a';
            else if (c >= 'A' && c <= 'F')
                d = 10 + c - 'A';
            else
                return fail(pos + i, "bad hex digit in \\u escape");
            out = out * 16 + d;
        }
        pos += 4;
        return true;
    }

    static void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xF0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        for (;;) {
            if (atEnd())
                return fail(pos, "unterminated string");
            unsigned char c = text[pos];
            if (c == '"') {
                pos++;
                return true;
            }
            if (c < 0x20)
                return fail(pos,
                            "raw control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                pos++;
                continue;
            }
            pos++;
            if (atEnd())
                return fail(pos, "unterminated escape");
            char e = text[pos++];
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xDC00 && cp <= 0xDFFF)
                    return fail(pos - 4, "lone low surrogate");
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    if (pos + 2 > text.size() ||
                        text[pos] != '\\' || text[pos + 1] != 'u')
                        return fail(pos, "unpaired high surrogate");
                    pos += 2;
                    unsigned lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail(pos - 4,
                                    "invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                        (lo - 0xDC00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail(pos - 1, "unknown escape");
            }
        }
    }

    bool
    parseNumber(double &out)
    {
        std::size_t start = pos;
        if (!atEnd() && peek() == '-')
            pos++;
        if (atEnd() || peek() < '0' || peek() > '9')
            return fail(pos, "invalid number");
        if (peek() == '0') {
            pos++;
            if (!atEnd() && peek() >= '0' && peek() <= '9')
                return fail(pos, "leading zero in number");
        } else {
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                pos++;
        }
        if (!atEnd() && peek() == '.') {
            pos++;
            if (atEnd() || peek() < '0' || peek() > '9')
                return fail(pos, "digit expected after '.'");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                pos++;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            pos++;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                pos++;
            if (atEnd() || peek() < '0' || peek() > '9')
                return fail(pos, "digit expected in exponent");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                pos++;
        }
        std::string span(text.substr(start, pos - start));
        out = std::strtod(span.c_str(), nullptr);
        if (!std::isfinite(out))
            return fail(start, "number out of range");
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > maxDepth)
            return fail(pos, "nesting too deep");
        skipWs();
        if (atEnd())
            return fail(pos, "unexpected end of input");
        char c = peek();
        if (c == 'n') {
            if (!consumeWord("null"))
                return false;
            out = Value(nullptr);
            return true;
        }
        if (c == 't') {
            if (!consumeWord("true"))
                return false;
            out = Value(true);
            return true;
        }
        if (c == 'f') {
            if (!consumeWord("false"))
                return false;
            out = Value(false);
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value(std::move(s));
            return true;
        }
        if (c == '[') {
            pos++;
            out = Value::array();
            skipWs();
            if (!atEnd() && peek() == ']') {
                pos++;
                return true;
            }
            for (;;) {
                Value item;
                if (!parseValue(item, depth + 1))
                    return false;
                out.push(std::move(item));
                skipWs();
                if (atEnd())
                    return fail(pos, "unterminated array");
                if (peek() == ',') {
                    pos++;
                    continue;
                }
                if (peek() == ']') {
                    pos++;
                    return true;
                }
                return fail(pos, "expected ',' or ']'");
            }
        }
        if (c == '{') {
            pos++;
            out = Value::object();
            auto &members = std::get<Value::Object>(out.v);
            // The keys so far, so that a line of many distinct keys
            // parses in linear time.
            std::unordered_set<std::string> keys;
            skipWs();
            if (!atEnd() && peek() == '}') {
                pos++;
                return true;
            }
            for (;;) {
                skipWs();
                std::size_t key_at = pos;
                Value::Member &m = members.emplace_back();
                if (!parseString(m.first))
                    return false;
                if (!keys.insert(m.first).second)
                    return fail(key_at,
                                "duplicate key '" + m.first + "'");
                skipWs();
                if (!consume(':'))
                    return false;
                if (!parseValue(m.second, depth + 1))
                    return false;
                skipWs();
                if (atEnd())
                    return fail(pos, "unterminated object");
                if (peek() == ',') {
                    pos++;
                    continue;
                }
                if (peek() == '}') {
                    pos++;
                    return true;
                }
                return fail(pos, "expected ',' or '}'");
            }
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            double d = 0.0;
            if (!parseNumber(d))
                return false;
            out = Value(d);
            return true;
        }
        return fail(pos, "unexpected character");
    }
};

} // namespace detail

Expected<Value, ParseError>
parse(std::string_view text)
{
    detail::Parser p;
    p.text = text;
    Value out;
    if (!p.parseValue(out, 0))
        return Expected<Value, ParseError>::failure(
            p.err.value_or(ParseError{p.pos, "parse error"}));
    p.skipWs();
    if (!p.atEnd())
        return Expected<Value, ParseError>::failure(
            ParseError{p.pos, "trailing characters after value"});
    return out;
}

} // namespace gpm::json
