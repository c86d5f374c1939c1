#include "obs/trace_json.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace gpushield::obs {

namespace {

bool
set_error(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

} // namespace

bool
validate_trace(const JsonValue &root, std::string *error)
{
    const JsonValue *events = root.find("traceEvents");
    if (!events || !events->is(JsonValue::Kind::Array))
        return set_error(error, "missing traceEvents array");

    struct Span
    {
        double ts, dur;
        std::string name;
    };
    std::map<std::pair<double, double>, std::vector<Span>> tracks;

    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &ev = events->array[i];
        const std::string at = "event " + std::to_string(i) + ": ";
        if (!ev.is(JsonValue::Kind::Object))
            return set_error(error, at + "not an object");
        const JsonValue *name = ev.find("name");
        const JsonValue *ph = ev.find("ph");
        const JsonValue *pid = ev.find("pid");
        const JsonValue *tid = ev.find("tid");
        if (!name || !name->is(JsonValue::Kind::String))
            return set_error(error, at + "missing string name");
        if (!ph || !ph->is(JsonValue::Kind::String))
            return set_error(error, at + "missing string ph");
        if (!pid || !pid->is(JsonValue::Kind::Number) || !tid ||
            !tid->is(JsonValue::Kind::Number))
            return set_error(error, at + "missing numeric pid/tid");
        if (ph->text == "X") {
            const JsonValue *ts = ev.find("ts");
            const JsonValue *dur = ev.find("dur");
            if (!ts || !ts->is(JsonValue::Kind::Number) || !dur ||
                !dur->is(JsonValue::Kind::Number))
                return set_error(error, at + "X event lacks ts/dur");
            tracks[{pid->as_double(), tid->as_double()}].push_back(
                {ts->as_double(), dur->as_double(), name->text});
        } else if (ph->text == "C") {
            const JsonValue *ts = ev.find("ts");
            if (!ts || !ts->is(JsonValue::Kind::Number))
                return set_error(error, at + "C event lacks ts");
        } else if (ph->text != "M") {
            return set_error(error, at + "unexpected ph '" + ph->text +
                                        "'");
        }
    }

    // Per-track nesting: sort by (ts, -dur) and keep a stack of open
    // spans. A span must end before — or exactly when — its parent does;
    // spans are half-open [ts, ts+dur), so touching endpoints are fine.
    for (auto &[track, spans] : tracks) {
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      if (a.ts != b.ts)
                          return a.ts < b.ts;
                      return a.dur > b.dur;
                  });
        std::vector<const Span *> open;
        for (const Span &s : spans) {
            while (!open.empty() &&
                   open.back()->ts + open.back()->dur <= s.ts)
                open.pop_back();
            if (!open.empty() &&
                s.ts + s.dur > open.back()->ts + open.back()->dur)
                return set_error(
                    error, "span '" + s.name + "' overlaps '" +
                               open.back()->name + "' without nesting");
            open.push_back(&s);
        }
    }
    return true;
}

} // namespace gpushield::obs
