#include "validate/json_io.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "sim/logging.hh"

namespace dramctrl {
namespace validate {

namespace {

const Json kNull;

struct Parser
{
    const char *p;
    const char *end;
    std::string err;

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    literal(const char *lit)
    {
        const char *q = p;
        while (*lit != '\0') {
            if (q >= end || *q != *lit)
                return false;
            ++q;
            ++lit;
        }
        p = q;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return fail("dangling escape");
                switch (*p) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (end - p < 5)
                        return fail("short \\u escape");
                    char buf[5] = {p[1], p[2], p[3], p[4], 0};
                    auto code = static_cast<unsigned>(
                        std::strtoul(buf, nullptr, 16));
                    // Repro files are ASCII; keep it simple.
                    out += static_cast<char>(code & 0x7f);
                    p += 4;
                    break;
                  }
                  default: return fail("unknown escape");
                }
                ++p;
            } else {
                out += *p++;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parseValue(Json &out)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
          case '{': {
            ++p;
            out = Json::object();
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                Json v;
                if (!parseValue(v))
                    return false;
                out.set(key, std::move(v));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++p;
            out = Json::array();
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            while (true) {
                Json v;
                if (!parseValue(v))
                    return false;
                out.push(std::move(v));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
          }
          case 't':
            if (literal("true")) {
                out = Json(true);
                return true;
            }
            return fail("bad literal");
          case 'f':
            if (literal("false")) {
                out = Json(false);
                return true;
            }
            return fail("bad literal");
          case 'n':
            if (literal("null")) {
                out = Json();
                return true;
            }
            return fail("bad literal");
          default: {
            const char *start = p;
            if (*p == '-' || *p == '+')
                ++p;
            bool integral = true;
            while (p < end &&
                   (std::isdigit(static_cast<unsigned char>(*p)) ||
                    *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                    *p == '+')) {
                if (*p == '.' || *p == 'e' || *p == 'E')
                    integral = false;
                ++p;
            }
            if (p == start)
                return fail("unexpected character");
            std::string num(start, p);
            if (integral && num[0] != '-') {
                errno = 0;
                char *endp = nullptr;
                std::uint64_t u =
                    std::strtoull(num.c_str(), &endp, 10);
                if (errno == 0 && endp != nullptr && *endp == '\0') {
                    out = Json(u);
                    return true;
                }
            }
            out = Json(std::strtod(num.c_str(), nullptr));
            return true;
          }
        }
    }
};

} // namespace

bool
Json::wholeNumber(std::uint64_t max, std::uint64_t &out) const
{
    if (isUInt_) {
        out = uint_;
        return uint_ <= max;
    }
    // Only negatives, fractions, exponent forms and numbers past 2^64
    // parse to a double; of those, a whole number in range passes.
    if (!(isNumber() && num_ >= 0 && num_ < 0x1p64 &&
          std::floor(num_) == num_))
        return false;
    out = static_cast<std::uint64_t>(num_);
    return out <= max;
}

Json::Json(const std::vector<unsigned> &list) : type_(Type::Array)
{
    for (unsigned u : list)
        arr_.push_back(u);
}

const Json &
Json::at(std::size_t i) const
{
    return i < arr_.size() ? arr_[i] : kNull;
}

const Json &
Json::operator[](const std::string &key) const
{
    auto it = obj_.find(key);
    return it == obj_.end() ? kNull : it->second;
}

bool
Json::has(const std::string &key) const
{
    return obj_.find(key) != obj_.end();
}

void
Json::set(const std::string &key, Json v)
{
    obj_[key] = std::move(v);
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent >= 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (type_) {
      case Type::Null: out += "null"; break;
      case Type::Bool: out += bool_ ? "true" : "false"; break;
      case Type::Number: {
        char buf[40];
        if (isUInt_)
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(uint_));
        else
            std::snprintf(buf, sizeof(buf), "%.17g", num_);
        out += buf;
        break;
      }
      case Type::String: out += jsonEscaped(str_); break;
      case Type::Array: {
        out += '[';
        bool first = true;
        for (const Json &v : arr_) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        if (!arr_.empty())
            newline(depth);
        out += ']';
        break;
      }
      case Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[k, v] : obj_) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            out += jsonEscaped(k);
            out += indent >= 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        if (!obj_.empty())
            newline(depth);
        out += '}';
        break;
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

bool
parseJson(const std::string &text, Json &out, std::string *err)
{
    Parser parser{text.data(), text.data() + text.size(), {}};
    if (!parser.parseValue(out)) {
        if (err != nullptr)
            *err = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        if (err != nullptr)
            *err = "trailing characters";
        return false;
    }
    return true;
}

bool
failAt(std::string *err, const std::string &where, const std::string &msg)
{
    if (err)
        *err = where + ": " + msg;
    return false;
}

namespace {

bool
mustBe(std::string &why, const char *key, const std::string &what)
{
    why = std::string("'") + key + "' must be " + what;
    return false;
}

template <typename T>
bool
readCount(const Json &v, const char *key, T &out, std::string &why)
{
    constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
    std::uint64_t u = 0;
    if (!v.isNumber())
        return mustBe(why, key, "a number");
    if (!v.wholeNumber(kMax, u))
        return mustBe(why, key,
                      "a whole number from 0 to " + std::to_string(kMax));
    out = static_cast<T>(u);
    return true;
}

} // namespace

bool
readAs(const Json &v, const char *key, unsigned &out, std::string &why)
{
    return readCount(v, key, out, why);
}

bool
readAs(const Json &v, const char *key, std::uint64_t &out,
       std::string &why)
{
    return readCount(v, key, out, why);
}

bool
readAs(const Json &v, const char *key, double &out, std::string &why)
{
    if (!v.isNumber())
        return mustBe(why, key, "a number");
    out = v.asDouble();
    return true;
}

bool
readAs(const Json &v, const char *key, bool &out, std::string &why)
{
    if (v.type() != Json::Type::Bool)
        return mustBe(why, key, "a boolean");
    out = v.asBool();
    return true;
}

bool
readAs(const Json &v, const char *key, std::string &out,
       std::string &why)
{
    if (v.type() != Json::Type::String)
        return mustBe(why, key, "a string");
    out = v.asString();
    return true;
}

bool
readAs(const Json &v, const char *key, std::vector<unsigned> &out,
       std::string &why)
{
    if (!v.isArray())
        return mustBe(why, key, "an array");
    out.clear();
    for (const Json &e : v.items()) {
        if (!e.isNumber()) {
            why = std::string("'") + key + "' entries must be numbers";
            return false;
        }
        constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
        std::uint64_t u = 0;
        if (!e.wholeNumber(kMax, u)) {
            why = std::string("'") + key +
                  "' entries must be whole numbers from 0 to " +
                  std::to_string(kMax);
            return false;
        }
        out.push_back(static_cast<unsigned>(u));
    }
    return true;
}

bool
readNs(const Json &v, const char *key, Tick &out, std::string &why)
{
    if (!v.isNumber())
        return mustBe(why, key, "a number (nanoseconds)");
    // fromNs() converts ns * 1000 + 0.5 to a tick: it must fit one.
    const double ns = v.asDouble();
    if (!(ns >= 0 && ns * kTicksPerNs + 0.5 < 0x1p64))
        return mustBe(why, key,
                      "a finite, non-negative number (nanoseconds) "
                      "below 1.8e16");
    out = fromNs(ns);
    return true;
}

} // namespace validate
} // namespace dramctrl
