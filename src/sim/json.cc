#include "sim/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/log.hh"

namespace tsoper
{

Json::Json(const Json &other)
    : type_(other.type_), rep_(other.rep_), p_(other.p_)
{
    switch (type_) {
      case Type::String: p_.str = new std::string(*other.p_.str); break;
      case Type::Array: p_.arr = new std::vector<Json>(*other.p_.arr); break;
      case Type::Object: p_.obj = new Members(*other.p_.obj); break;
      default: break;
    }
}

void
Json::release() noexcept
{
    switch (type_) {
      case Type::String: delete p_.str; break;
      case Type::Array: delete p_.arr; break;
      case Type::Object: delete p_.obj; break;
      default: break;
    }
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    j.p_.arr = new std::vector<Json>();
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    j.p_.obj = new Members();
    return j;
}

bool
Json::asBool() const
{
    tsoper_assert(type_ == Type::Bool, "Json::asBool on non-bool");
    return p_.b;
}

double
Json::asDouble() const
{
    tsoper_assert(type_ == Type::Number, "Json::asDouble on non-number");
    switch (rep_) {
      case NumRep::Dbl: return p_.d;
      case NumRep::Int: return static_cast<double>(p_.i);
      case NumRep::Uint: return static_cast<double>(p_.u);
    }
    return 0.0;
}

std::int64_t
Json::asInt() const
{
    tsoper_assert(type_ == Type::Number, "Json::asInt on non-number");
    switch (rep_) {
      case NumRep::Dbl: return static_cast<std::int64_t>(p_.d);
      case NumRep::Int: return p_.i;
      case NumRep::Uint: return static_cast<std::int64_t>(p_.u);
    }
    return 0;
}

std::uint64_t
Json::asUint() const
{
    tsoper_assert(type_ == Type::Number, "Json::asUint on non-number");
    switch (rep_) {
      case NumRep::Dbl: return static_cast<std::uint64_t>(p_.d);
      case NumRep::Int: return static_cast<std::uint64_t>(p_.i);
      case NumRep::Uint: return p_.u;
    }
    return 0;
}

const std::string &
Json::asString() const
{
    tsoper_assert(type_ == Type::String, "Json::asString on non-string");
    return *p_.str;
}

Json &
Json::push(Json v)
{
    tsoper_assert(type_ == Type::Array, "Json::push on non-array");
    p_.arr->push_back(std::move(v));
    return *this;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return p_.arr->size();
    if (type_ == Type::Object)
        return p_.obj->size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    tsoper_assert(type_ == Type::Array, "Json::at on non-array");
    tsoper_assert(i < p_.arr->size(), "Json::at index ", i, " out of range");
    return (*p_.arr)[i];
}

Json &
Json::set(const std::string &key, Json v)
{
    tsoper_assert(type_ == Type::Object, "Json::set on non-object");
    for (auto &[k, existing] : *p_.obj) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    p_.obj->emplace_back(key, std::move(v));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : *p_.obj)
        if (k == key)
            return &v;
    return nullptr;
}

const Json &
Json::operator[](const std::string &key) const
{
    const Json *v = find(key);
    tsoper_assert(v, "Json object has no member \"", key, "\"");
    return *v;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    tsoper_assert(type_ == Type::Object, "Json::members on non-object");
    return *p_.obj;
}

bool
Json::operator==(const Json &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return p_.b == other.p_.b;
      case Type::Number: {
        // Numbers compare by value.  Integers compare exactly (a
        // negative Int never equals a Uint); only a double goes
        // through double.
        if (rep_ == NumRep::Dbl || other.rep_ == NumRep::Dbl)
            return asDouble() == other.asDouble();
        if (rep_ == other.rep_)
            return rep_ == NumRep::Int ? p_.i == other.p_.i
                                       : p_.u == other.p_.u;
        const std::int64_t i = rep_ == NumRep::Int ? p_.i : other.p_.i;
        const std::uint64_t u = rep_ == NumRep::Uint ? p_.u : other.p_.u;
        return i >= 0 && static_cast<std::uint64_t>(i) == u;
      }
      case Type::String: return *p_.str == *other.p_.str;
      case Type::Array: return *p_.arr == *other.p_.arr;
      case Type::Object: return *p_.obj == *other.p_.obj;
    }
    return false;
}

namespace
{

void
escapeString(const std::string &s, std::string &out)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

} // namespace

void
Json::dumpNumber(std::string &out) const
{
    char buf[40];
    if (rep_ != NumRep::Dbl) {
        const auto r = rep_ == NumRep::Int
                           ? std::to_chars(buf, buf + sizeof(buf), p_.i)
                           : std::to_chars(buf, buf + sizeof(buf), p_.u);
        out.append(buf, r.ptr);
        return;
    }
    if (!std::isfinite(p_.d)) {
        out += "null"; // JSON has no inf/nan
        return;
    }
    // Shortest decimal form that round-trips to the same double, so
    // identical values always serialize to identical bytes.
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, p_.d);
        if (std::strtod(buf, nullptr) == p_.d)
            break;
    }
    out += buf;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    auto newline = [&](int d) {
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) *
                           static_cast<std::size_t>(d),
                       ' ');
        }
    };

    switch (type_) {
      case Type::Null:
        out += "null";
        return;
      case Type::Bool:
        out += p_.b ? "true" : "false";
        return;
      case Type::Number:
        dumpNumber(out);
        return;
      case Type::String:
        escapeString(*p_.str, out);
        return;
      case Type::Array: {
        const std::vector<Json> &arr = *p_.arr;
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        return;
      }
      case Type::Object: {
        const Members &obj = *p_.obj;
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            escapeString(obj[i].first, out);
            out += pretty ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        return;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// --- Parser ----------------------------------------------------------

namespace
{

struct Parser
{
    explicit Parser(const std::string &t) : text(t) {}

    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, Json value, Json *out)
    {
        const std::size_t n = std::strlen(word);
        if (text.compare(pos, n, word) != 0)
            return fail(std::string("invalid literal, expected ") + word);
        pos += n;
        *out = std::move(value);
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        std::string s;
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"') {
                *out = std::move(s);
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            const char e = text[pos++];
            switch (e) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("invalid hex digit in \\u escape");
                }
                // Encode the BMP code point as UTF-8 (surrogate pairs
                // are not produced by our own serializer).
                if (cp < 0x80) {
                    s += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    s += static_cast<char>(0xC0 | (cp >> 6));
                    s += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    s += static_cast<char>(0xE0 | (cp >> 12));
                    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    s += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                return fail("invalid escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json *out)
    {
        const std::size_t start = pos;
        bool isInteger = true;
        if (consume('-')) {
        }
        while (pos < text.size() && std::isdigit(
                   static_cast<unsigned char>(text[pos])))
            ++pos;
        if (pos < text.size() && text[pos] == '.') {
            isInteger = false;
            ++pos;
            while (pos < text.size() && std::isdigit(
                       static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            isInteger = false;
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            while (pos < text.size() && std::isdigit(
                       static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        const std::string tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-")
            return fail("invalid number");
        errno = 0;
        if (isInteger) {
            char *end = nullptr;
            if (tok[0] == '-') {
                const long long v = std::strtoll(tok.c_str(), &end, 10);
                if (errno != ERANGE && end == tok.c_str() + tok.size()) {
                    *out = Json(static_cast<std::int64_t>(v));
                    return true;
                }
            } else {
                const unsigned long long v =
                    std::strtoull(tok.c_str(), &end, 10);
                if (errno != ERANGE && end == tok.c_str() + tok.size()) {
                    *out = Json(static_cast<std::uint64_t>(v));
                    return true;
                }
            }
            errno = 0; // overflowing integers fall through to double
        }
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("invalid number");
        *out = Json(d);
        return true;
    }

    bool
    parseValue(Json *out, int depth)
    {
        if (depth > 200)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == 'n')
            return literal("null", Json(), out);
        if (c == 't')
            return literal("true", Json(true), out);
        if (c == 'f')
            return literal("false", Json(false), out);
        if (c == '"') {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Json(std::move(s));
            return true;
        }
        if (c == '[') {
            ++pos;
            Json arr = Json::array();
            skipWs();
            if (consume(']')) {
                *out = std::move(arr);
                return true;
            }
            while (true) {
                Json elem;
                if (!parseValue(&elem, depth + 1))
                    return false;
                arr.push(std::move(elem));
                skipWs();
                if (consume(']'))
                    break;
                if (!consume(','))
                    return fail("expected ',' or ']'");
            }
            *out = std::move(arr);
            return true;
        }
        if (c == '{') {
            ++pos;
            Json obj = Json::object();
            skipWs();
            if (consume('}')) {
                *out = std::move(obj);
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                Json value;
                if (!parseValue(&value, depth + 1))
                    return false;
                obj.set(key, std::move(value));
                skipWs();
                if (consume('}'))
                    break;
                if (!consume(','))
                    return fail("expected ',' or '}'");
            }
            *out = std::move(obj);
            return true;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber(out);
        return fail("unexpected character");
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json *out, std::string *err)
{
    Parser p{text};
    Json result;
    if (!p.parseValue(&result, 0)) {
        if (err)
            *err = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing characters at offset " + std::to_string(p.pos);
        return false;
    }
    *out = std::move(result);
    return true;
}

} // namespace tsoper
