/**
 * @file
 * Minimal JSON document model: build, serialize, parse.
 *
 * Exists so the campaign subsystem and the stats exporter can emit
 * machine-readable artifacts (BENCH_*.json) without an external
 * dependency.  Three properties matter here and drove the design:
 *
 *  - Deterministic output: object members keep insertion order and
 *    doubles serialize with the shortest representation that parses
 *    back to the identical bit pattern, so the same data always dumps
 *    to the same bytes (campaign reports are diffed across runs).
 *  - Lossless integers: counters are uint64 and may exceed 2^53, so
 *    numbers remember whether they were created as unsigned, signed
 *    or floating point and serialize accordingly.
 *  - Round-tripping: parse(dump(x)) == x for every document built
 *    through this API.
 *
 * A node is 16 bytes: a header (the value type and, for a number,
 * whether it holds a double, int64 or uint64) and one 8-byte payload.
 * A scalar keeps its value in the payload; a string, array or object
 * owns its std::string, std::vector<Json> or member vector through
 * it.  Statistics trees outlive their run (reports hold one per cell),
 * so a held value costs about what its text costs.  Copies are deep.
 * A move steals the payload and leaves the source null, ready to be
 * assigned again.
 */

#ifndef TSOPER_SIM_JSON_HH
#define TSOPER_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tsoper
{

class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default; ///< null
    Json(bool b) : type_(Type::Bool), p_{.b = b} {}
    Json(double d) : type_(Type::Number), rep_(NumRep::Dbl), p_{.d = d} {}
    Json(std::int64_t i) : type_(Type::Number), rep_(NumRep::Int), p_{.i = i}
    {}
    Json(std::uint64_t u) : type_(Type::Number), rep_(NumRep::Uint), p_{.u = u}
    {}
    Json(int i) : Json(static_cast<std::int64_t>(i)) {}
    Json(unsigned u) : Json(static_cast<std::uint64_t>(u)) {}
    Json(const char *s) : Json(std::string(s)) {}
    Json(std::string s)
        : type_(Type::String), p_{.str = new std::string(std::move(s))}
    {}

    Json(const Json &other);
    Json(Json &&other) noexcept
        : type_(other.type_), rep_(other.rep_), p_(other.p_)
    {
        other.type_ = Type::Null;
    }
    /** Copy or move; assigning a value to itself keeps it. */
    Json &
    operator=(Json other) noexcept
    {
        std::swap(type_, other.type_);
        std::swap(rep_, other.rep_);
        std::swap(p_, other.p_);
        return *this;
    }
    ~Json()
    {
        if (type_ >= Type::String) // String, Array, Object own a block
            release();
    }

    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;

    /** Array: append an element. */
    Json &push(Json v);
    /** Array/object: element count. */
    std::size_t size() const;
    /** Array: element by index (fatal when out of range). */
    const Json &at(std::size_t i) const;

    /** Object: set @p key (replacing an existing member in place,
     *  appending otherwise).  Returns *this for chaining. */
    Json &set(const std::string &key, Json v);
    /** Object: member by key, nullptr when absent. */
    const Json *find(const std::string &key) const;
    /** Object: member by key (fatal when absent). */
    const Json &operator[](const std::string &key) const;
    /** Object: members in insertion order. */
    const std::vector<std::pair<std::string, Json>> &members() const;

    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const { return !(*this == other); }

    /**
     * Serialize.  @p indent < 0 emits the compact single-line form;
     * @p indent >= 0 pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse @p text into @p out.  On failure returns false and, when
     * @p err is non-null, stores a message with the byte offset.
     * Trailing non-whitespace after the document is an error.
     */
    static bool parse(const std::string &text, Json *out,
                      std::string *err = nullptr);

  private:
    enum class NumRep
    {
        Dbl,
        Int,
        Uint,
    };
    using Members = std::vector<std::pair<std::string, Json>>;

    void release() noexcept;
    void dumpTo(std::string &out, int indent, int depth) const;
    void dumpNumber(std::string &out) const;

    Type type_ = Type::Null;
    NumRep rep_ = NumRep::Dbl;
    union
    {
        std::uint64_t u;
        std::int64_t i;
        double d;
        bool b;
        std::string *str;
        std::vector<Json> *arr;
        Members *obj;
    } p_{}; ///< Active member: the one type_ and rep_ name.
};

static_assert(sizeof(Json) == 16);

} // namespace tsoper

#endif // TSOPER_SIM_JSON_HH
