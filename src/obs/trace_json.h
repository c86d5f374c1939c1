/**
 * @file
 * Chrome-trace structural validator over the common JSON parser
 * (common/json.h): the `gpushield-profile --check` gate and the trace
 * round-trip tests parse with parse_json, then validate here.
 */

#ifndef GPUSHIELD_OBS_TRACE_JSON_H
#define GPUSHIELD_OBS_TRACE_JSON_H

#include <string>

#include "common/json.h"

namespace gpushield::obs {

/**
 * Validates @p root as a Chrome trace: `traceEvents` is an array; every
 * event has name/ph/pid/tid; "X" events carry numeric ts+dur and, per
 * (pid,tid) track, nest strictly (each span is fully inside or fully
 * outside every other). On failure returns false and, when @p error is
 * non-null, describes the first problem.
 */
bool validate_trace(const JsonValue &root, std::string *error = nullptr);

} // namespace gpushield::obs

#endif // GPUSHIELD_OBS_TRACE_JSON_H
