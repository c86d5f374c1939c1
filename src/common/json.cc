#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/decimal.h"
#include "common/log.h"

namespace gpushield {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
json_quote(const std::string &s)
{
    return "\"" + json_escape(s) + "\"";
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

const JsonValue &
JsonValue::want(Kind k) const
{
    if (kind != k)
        throw SimulationError("JSON: value has the wrong type");
    return *this;
}

double
JsonValue::as_double() const
{
    return std::strtod(want(Kind::Number).text.c_str(), nullptr);
}

std::uint64_t
JsonValue::as_u64() const
{
    std::uint64_t v = 0;
    if (!parse_decimal(want(Kind::Number).text, 0,
                       std::numeric_limits<std::uint64_t>::max(), v))
        throw SimulationError("JSON: not an unsigned 64-bit integer: " +
                              text);
    return v;
}

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw SimulationError("JSON parse error at offset " +
                              std::to_string(pos_) + ": " + what);
    }

    void
    skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    bool
    consume_literal(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue
    value()
    {
        skip_ws();
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        JsonValue v;
        if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.text = string();
        } else if (consume_literal("true")) {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
        } else if (consume_literal("false")) {
            v.kind = JsonValue::Kind::Bool;
        } else if (!consume_literal("null")) {
            v.kind = JsonValue::Kind::Number;
            v.text = number();
        }
        return v;
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            v.object.emplace(std::move(key), value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    /** Decodes \u0000-\u001f, the only \u form json_escape writes. */
    char
    control_escape()
    {
        const std::string_view hex = text_.substr(pos_, 4);
        unsigned code = 0;
        const char *end = hex.data() + hex.size();
        const auto [ptr, ec] = std::from_chars(hex.data(), end, code, 16);
        if (hex.size() != 4 || ec != std::errc{} || ptr != end ||
            code >= 0x20)
            fail("unsupported \\u escape");
        pos_ += 4;
        return static_cast<char>(code);
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            const char c = peek();
            ++pos_;
            if (c == '"')
                return out;
            if (c == '\\') {
                const char esc = peek();
                ++pos_;
                switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': out += control_escape(); break;
                default: fail("unsupported escape sequence");
                }
                continue;
            }
            out += c;
        }
    }

    std::string
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("malformed number '" + token + "'");
        return token;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parse_json(std::string_view text)
{
    return Parser(text).parse();
}

} // namespace gpushield
