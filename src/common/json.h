/**
 * @file
 * The one JSON escaper and the one JSON parser.
 *
 * Every emitter (sweep JSONL, Chrome traces, the fairness and check-opt
 * reports) quotes its strings through json_quote; every reader (the
 * JSONL round-trip, the trace validator, tests) parses through
 * parse_json. The parser accepts exactly what the emitters write plus
 * standard JSON structure: objects, arrays, strings, numbers, booleans,
 * null. Its only \u escapes are the control bytes json_escape writes —
 * no surrogates, no streaming.
 */

#ifndef GPUSHIELD_COMMON_JSON_H
#define GPUSHIELD_COMMON_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gpushield {

/** Escapes @p s for a JSON string body: `"`, `\`, newline, tab and CR
 *  as two-character escapes, every other control byte as \u00XX. */
std::string json_escape(const std::string &s);

/** json_escape(@p s) inside double quotes. */
std::string json_quote(const std::string &s);

/** One parsed JSON value (tree-owned). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** String: the decoded text. Number: the token as written, so
     *  64-bit integers survive exactly. */
    std::string text;
    std::vector<JsonValue> array;
    /** Insertion order is not preserved; no reader needs it. */
    std::map<std::string, JsonValue> object;

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    bool is(Kind k) const { return kind == k; }

    /** Typed reads; each throws SimulationError on the wrong kind. */
    const std::string &as_string() const { return want(Kind::String).text; }
    bool as_bool() const { return want(Kind::Bool).boolean; }
    double as_double() const;
    /** Also throws on a sign, a fraction, an exponent or an overflow. */
    std::uint64_t as_u64() const;

  private:
    const JsonValue &want(Kind k) const;
};

/** Parses @p text; throws SimulationError on malformed input. */
JsonValue parse_json(std::string_view text);

} // namespace gpushield

#endif // GPUSHIELD_COMMON_JSON_H
