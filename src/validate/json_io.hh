/**
 * @file
 * Minimal JSON document model for the validation subsystem.
 *
 * Repro files (seed + config + shrunk request stream) must be written
 * on failure and replayed later, so the subsystem needs both a writer
 * and a parser. The stats tree already knows how to *emit* JSON; this
 * adds the tiny self-contained value model and recursive-descent
 * parser the repro format needs — objects, arrays, strings, bools,
 * null, and numbers (64-bit unsigned integers kept exact) — and the
 * field tables that map a struct onto a JSON object (Field,
 * readFields(), writeFields()).
 */

#ifndef DRAMCTRL_VALIDATE_JSON_IO_H
#define DRAMCTRL_VALIDATE_JSON_IO_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/types.hh"

namespace dramctrl {
namespace validate {

class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d) {}
    Json(std::uint64_t u)
        : type_(Type::Number), num_(static_cast<double>(u)), uint_(u),
          isUInt_(true)
    {}
    Json(int i) : Json(static_cast<double>(i)) {}
    Json(unsigned u) : Json(static_cast<std::uint64_t>(u)) {}
    template <typename T,
              typename = std::enable_if_t<
                  std::is_unsigned_v<T> &&
                  !std::is_same_v<T, bool> &&
                  !std::is_same_v<T, unsigned> &&
                  !std::is_same_v<T, std::uint64_t>>>
    Json(T u) : Json(static_cast<std::uint64_t>(u))
    {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
    /** An array of counts. */
    Json(const std::vector<unsigned> &list);

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }

    bool asBool(bool fallback = false) const
    {
        return type_ == Type::Bool ? bool_ : fallback;
    }
    double asDouble(double fallback = 0) const
    {
        return type_ == Type::Number ? num_ : fallback;
    }
    std::uint64_t
    asUInt(std::uint64_t fallback = 0) const
    {
        if (type_ != Type::Number)
            return fallback;
        return isUInt_ ? uint_ : static_cast<std::uint64_t>(num_);
    }
    /**
     * True, with the value in @p out, when this is a whole number from
     * 0 to @p max; false for a fraction, a negative or a larger number.
     */
    bool wholeNumber(std::uint64_t max, std::uint64_t &out) const;
    const std::string &
    asString(const std::string &fallback = std::string()) const
    {
        return type_ == Type::String ? str_ : fallback;
    }

    /** Array element access; returns a shared null for misses. */
    const Json &at(std::size_t i) const;
    std::size_t size() const { return arr_.size(); }
    void push(Json v) { arr_.push_back(std::move(v)); }
    const std::vector<Json> &items() const { return arr_; }

    /** Object member access; returns a shared null for misses. */
    const Json &operator[](const std::string &key) const;
    bool has(const std::string &key) const;
    void set(const std::string &key, Json v);
    const std::map<std::string, Json> &members() const { return obj_; }

    /** Serialise; indent >= 0 pretty-prints. */
    std::string dump(int indent = -1) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0;
    std::uint64_t uint_ = 0;
    bool isUInt_ = false;
    std::string str_;
    std::vector<Json> arr_;
    std::map<std::string, Json> obj_;
};

/**
 * Parse @p text into @p out.
 * @return false (with *err set when given) on malformed input.
 */
bool parseJson(const std::string &text, Json &out,
               std::string *err = nullptr);

/** Set *err (when given) to "@p where: @p msg"; returns false. */
bool failAt(std::string *err, const std::string &where,
            const std::string &msg);

/*
 * How each kind of member is stored in JSON, read back: store @p v in
 * @p out, or return false with a message naming @p key in @p why.
 *
 *   unsigned, std::uint64_t  a count or a raw tick: a whole number from
 *                            0 to the member's maximum
 *   double, bool, string     themselves
 *   vector<unsigned>         an array of counts
 *   Tick, by readNs()        a duration in ns: a finite, non-negative
 *                            number whose tick fits 64 bits
 */
bool readAs(const Json &v, const char *key, unsigned &out,
            std::string &why);
bool readAs(const Json &v, const char *key, std::uint64_t &out,
            std::string &why);
bool readAs(const Json &v, const char *key, double &out,
            std::string &why);
bool readAs(const Json &v, const char *key, bool &out, std::string &why);
bool readAs(const Json &v, const char *key, std::string &out,
            std::string &why);
bool readAs(const Json &v, const char *key, std::vector<unsigned> &out,
            std::string &why);
bool readNs(const Json &v, const char *key, Tick &out, std::string &why);

/** Marks a field table row whose tick member is written in ns. */
struct InNs
{
};
inline constexpr InNs inNs{};

/**
 * One row of a field table: a document key, the member of @p S it
 * names, and how the member is stored in JSON. The member's type picks
 * its readAs(); a tick written in ns adds inNs, and an enum, stored as
 * its name, adds its name functions. readFields() and writeFields()
 * walk a table, so each key of a document is spelled once, in its row.
 */
template <typename S>
struct Field
{
    template <typename T>
    Field(const char *k, T S::*m) : key(k)
    {
        bind(m,
             [](const Json &v, const char *key, T &out, std::string &why) {
                 return readAs(v, key, out, why);
             },
             [](const T &t) { return Json(t); });
    }
    Field(const char *k, Tick S::*m, InNs) : key(k)
    {
        bind(m, readNs, [](Tick t) { return Json(toNs(t)); });
    }
    template <typename E>
        requires std::is_enum_v<E>
    Field(const char *k, E S::*m,
          const char *(*name)(std::type_identity_t<E>),
          bool (*parse)(const std::string &, std::type_identity_t<E> &))
        : key(k)
    {
        bind(m,
             [parse](const Json &v, const char *key, E &out,
                     std::string &why) {
                 std::string s;
                 if (!readAs(v, key, s, why))
                     return false;
                 if (parse(s, out))
                     return true;
                 why = std::string("unknown ") + key + " '" + s + "'";
                 return false;
             },
             [name](E e) { return Json(name(e)); });
    }

    const char *key;
    /** Store @p v in its member of @p s; false with the reason in @p why. */
    std::function<bool(const Json &v, S &s, std::string &why)> read;
    /** The member of @p s as JSON. */
    std::function<Json(const S &s)> write;

  private:
    template <typename T, typename Read, typename Write>
    void
    bind(T S::*m, Read rd, Write wr)
    {
        read = [k = key, m, rd](const Json &v, S &s, std::string &why) {
            return rd(v, k, s.*m, why);
        };
        write = [m, wr](const S &s) { return wr(s.*m); };
    }
};

template <typename S>
using FieldTable = std::vector<Field<S>>;

/**
 * Read the JSON object @p j into @p s through @p table. Keys @p j
 * lacks keep their value in @p s. A key the table does not name, a
 * value of the wrong type or out of its member's range, or a @p j that
 * is no object fails with "@p where: ..." in *err (when given).
 */
template <typename S>
bool
readFields(const Json &j, const std::string &where,
           const FieldTable<S> &table, S &s, std::string *err)
{
    if (!j.isObject())
        return failAt(err, where, "must be an object");
    for (const auto &kv : j.members()) {
        if (std::none_of(table.begin(), table.end(),
                         [&](const Field<S> &f) {
                             return kv.first == f.key;
                         }))
            return failAt(err, where, "unknown key '" + kv.first + "'");
    }
    std::string why;
    for (const Field<S> &f : table) {
        if (j.has(f.key) && !f.read(j[f.key], s, why))
            return failAt(err, where, why);
    }
    return true;
}

/** Every row of @p table, with its member of @p s, as one object. */
template <typename S>
Json
writeFields(const FieldTable<S> &table, const S &s)
{
    Json j = Json::object();
    for (const Field<S> &f : table)
        j.set(f.key, f.write(s));
    return j;
}

} // namespace validate
} // namespace dramctrl

#endif // DRAMCTRL_VALIDATE_JSON_IO_H
