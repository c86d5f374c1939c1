#include "harness/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <map>
#include <ostream>

#include "common/log.h"

namespace gpushield::harness {

namespace {

/** Shortest %.17g spelling that round-trips an IEEE double exactly. */
std::string
double_repr(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
stat_set_json(const StatSet &s)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : s.counters()) {
        if (!first)
            out += ",";
        first = false;
        out += json_quote(name) + ":" + std::to_string(value);
    }
    out += "}";
    return out;
}

/** Everything but the shield flag: the join key for overhead pairs. */
std::string
pair_group_key(const RunRecord &r)
{
    return r.suite + "\x1f" + r.set + "\x1f" + r.workload + "\x1f" +
           r.workload_b + "\x1f" + r.config + "\x1f" + r.placement +
           "\x1f" + (r.use_static ? "s" : "-") + "\x1f" +
           std::to_string(r.launches);
}

} // namespace

bool
operator==(const RunRecord &a, const RunRecord &b)
{
    return a.key == b.key && a.suite == b.suite && a.set == b.set &&
           a.workload == b.workload && a.workload_b == b.workload_b &&
           a.config == b.config && a.placement == b.placement &&
           a.shield == b.shield && a.use_static == b.use_static &&
           a.launches == b.launches && a.seed == b.seed && a.ok == b.ok &&
           a.aborted == b.aborted && a.error == b.error &&
           a.cycles == b.cycles && a.violations == b.violations &&
           a.l1_rcache_hit_rate == b.l1_rcache_hit_rate &&
           a.rcache == b.rcache && a.bcu == b.bcu && a.mem == b.mem &&
           a.kernel == b.kernel && a.obs == b.obs &&
           a.conform == b.conform;
}

double
OverheadPair::ratio() const
{
    return static_cast<double>(shielded->cycles) /
           static_cast<double>(baseline->cycles);
}

std::vector<OverheadPair>
pair_overheads(const std::vector<RunRecord> &records)
{
    std::map<std::string, OverheadPair> by_group;
    std::vector<std::string> order;
    for (const RunRecord &r : records) {
        if (!r.ok)
            continue;
        const std::string group = pair_group_key(r);
        auto [it, inserted] = by_group.try_emplace(group);
        if (inserted)
            order.push_back(group);
        (r.shield ? it->second.shielded : it->second.baseline) = &r;
    }

    std::vector<OverheadPair> out;
    for (const std::string &group : order) {
        const OverheadPair &p = by_group[group];
        if (p.baseline != nullptr && p.shielded != nullptr &&
            p.baseline->cycles != 0)
            out.push_back(p);
    }
    return out;
}

std::string
csv_escape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::vector<std::string>
csv_split(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            cells.push_back(std::move(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    cells.push_back(std::move(cur));
    return cells;
}

void
MetricsRegistry::write_jsonl(std::ostream &os) const
{
    for (const RunRecord &r : records_) {
        os << "{\"key\":" << json_quote(r.key)
           << ",\"suite\":" << json_quote(r.suite)
           << ",\"set\":" << json_quote(r.set)
           << ",\"workload\":" << json_quote(r.workload)
           << ",\"workload_b\":" << json_quote(r.workload_b)
           << ",\"config\":" << json_quote(r.config)
           << ",\"placement\":" << json_quote(r.placement)
           << ",\"shield\":" << (r.shield ? "true" : "false")
           << ",\"use_static\":" << (r.use_static ? "true" : "false")
           << ",\"launches\":" << r.launches
           << ",\"seed\":" << r.seed
           << ",\"ok\":" << (r.ok ? "true" : "false")
           << ",\"aborted\":" << (r.aborted ? "true" : "false")
           << ",\"error\":" << json_quote(r.error)
           << ",\"cycles\":" << r.cycles
           << ",\"violations\":" << r.violations
           << ",\"l1_rcache_hit_rate\":" << double_repr(r.l1_rcache_hit_rate)
           << ",\"rcache\":" << stat_set_json(r.rcache)
           << ",\"bcu\":" << stat_set_json(r.bcu)
           << ",\"mem\":" << stat_set_json(r.mem)
           << ",\"kernel\":" << stat_set_json(r.kernel);
        // Only profiled sweeps carry "obs": keeps unprofiled output
        // (and the golden files diffed in CI) byte-identical.
        if (!r.obs.counters().empty())
            os << ",\"obs\":" << stat_set_json(r.obs);
        if (!r.conform.counters().empty())
            os << ",\"conform\":" << stat_set_json(r.conform);
        os << "}\n";
    }
}

const std::vector<std::string> &
MetricsRegistry::csv_header()
{
    static const std::vector<std::string> header = {
        "key",       "suite",     "set",        "workload",
        "workload_b", "config",   "placement",  "shield",
        "use_static", "launches", "seed",       "ok",
        "aborted",    "error",    "cycles",     "violations",
        "l1_rcache_hit_rate"};
    return header;
}

void
MetricsRegistry::write_csv(std::ostream &os) const
{
    const auto &header = csv_header();
    for (std::size_t i = 0; i < header.size(); ++i)
        os << (i ? "," : "") << header[i];
    os << "\n";
    for (const RunRecord &r : records_) {
        os << csv_escape(r.key) << "," << csv_escape(r.suite) << ","
           << csv_escape(r.set) << "," << csv_escape(r.workload) << ","
           << csv_escape(r.workload_b) << "," << csv_escape(r.config) << ","
           << csv_escape(r.placement) << "," << (r.shield ? 1 : 0) << ","
           << (r.use_static ? 1 : 0) << "," << r.launches << "," << r.seed
           << "," << (r.ok ? 1 : 0) << "," << (r.aborted ? 1 : 0) << ","
           << csv_escape(r.error) << "," << r.cycles << "," << r.violations
           << "," << double_repr(r.l1_rcache_hit_rate) << "\n";
    }
}

void
MetricsRegistry::write_summary(std::ostream &os, double wall_seconds,
                               unsigned jobs) const
{
    std::size_t ok = 0, failed = 0, aborted = 0;
    std::uint64_t violations = 0;
    for (const RunRecord &r : records_) {
        (r.ok ? ok : failed)++;
        aborted += r.aborted ? 1 : 0;
        violations += r.violations;
    }

    os << "sweep " << (records_.empty() ? "(empty)" : records_[0].suite)
       << ": " << records_.size() << " cells, " << ok << " ok, " << failed
       << " failed, " << aborted << " aborted, " << violations
       << " violations\n";
    if (wall_seconds > 0.0) {
        os << "  wall " << fmt(wall_seconds, 2) << "s, "
           << fmt(static_cast<double>(records_.size()) / wall_seconds, 2)
           << " runs/sec (jobs=" << jobs << ")\n";
    }

    const std::vector<OverheadPair> pairs = pair_overheads(records_);
    if (!pairs.empty()) {
        std::vector<double> ratios;
        ratios.reserve(pairs.size());
        const OverheadPair *worst = nullptr;
        for (const OverheadPair &p : pairs) {
            ratios.push_back(p.ratio());
            if (worst == nullptr || p.ratio() > worst->ratio())
                worst = &p;
        }
        os << "  shield overhead geomean " << fmt(geomean(ratios)) << " over "
           << pairs.size() << " pairs (worst " << fmt(worst->ratio()) << " "
           << worst->shielded->key << ")\n";
    }

    for (const RunRecord &r : records_)
        if (!r.ok)
            os << "  FAIL " << r.key << ": " << r.error << "\n";
}

// ---------------------------------------------------------------------------
// JSONL parsing (the common JSON parser, then one typed read per field).

namespace {

StatSet
read_stat_set(const JsonValue &v)
{
    if (!v.is(JsonValue::Kind::Object))
        throw SimulationError("jsonl: expected a counter object");
    StatSet out;
    for (const auto &[name, value] : v.object)
        out.set(name, value.as_u64());
    return out;
}

} // namespace

std::vector<RunRecord>
MetricsRegistry::read_jsonl(std::istream &is)
{
    std::vector<RunRecord> out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const JsonValue root = parse_json(line);
        if (!root.is(JsonValue::Kind::Object))
            throw SimulationError("jsonl: record is not an object");
        RunRecord r;
        for (const auto &[field, v] : root.object) {
            if (field == "key")
                r.key = v.as_string();
            else if (field == "suite")
                r.suite = v.as_string();
            else if (field == "set")
                r.set = v.as_string();
            else if (field == "workload")
                r.workload = v.as_string();
            else if (field == "workload_b")
                r.workload_b = v.as_string();
            else if (field == "config")
                r.config = v.as_string();
            else if (field == "placement")
                r.placement = v.as_string();
            else if (field == "error")
                r.error = v.as_string();
            else if (field == "shield")
                r.shield = v.as_bool();
            else if (field == "use_static")
                r.use_static = v.as_bool();
            else if (field == "ok")
                r.ok = v.as_bool();
            else if (field == "aborted")
                r.aborted = v.as_bool();
            else if (field == "launches") {
                const std::uint64_t n = v.as_u64();
                if (n > std::numeric_limits<unsigned>::max())
                    throw SimulationError("jsonl: launches out of range");
                r.launches = static_cast<unsigned>(n);
            } else if (field == "seed")
                r.seed = v.as_u64();
            else if (field == "cycles")
                r.cycles = v.as_u64();
            else if (field == "violations")
                r.violations = v.as_u64();
            else if (field == "l1_rcache_hit_rate")
                r.l1_rcache_hit_rate = v.as_double();
            else if (field == "rcache")
                r.rcache = read_stat_set(v);
            else if (field == "bcu")
                r.bcu = read_stat_set(v);
            else if (field == "mem")
                r.mem = read_stat_set(v);
            else if (field == "kernel")
                r.kernel = read_stat_set(v);
            else if (field == "obs")
                r.obs = read_stat_set(v);
            else if (field == "conform")
                r.conform = read_stat_set(v);
            else
                throw SimulationError("jsonl: unknown field " + field);
        }
        out.push_back(std::move(r));
    }
    return out;
}

// ---------------------------------------------------------------------------

std::string
fmt(double v, int digits)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

CsvSink::CsvSink(const std::string &name,
                 const std::vector<std::string> &headers)
{
    const char *dir = std::getenv("GPUSHIELD_CSV_DIR");
    if (dir == nullptr)
        return;
    out_.open(std::string(dir) + "/" + name + ".csv");
    if (!out_.is_open())
        return;
    row(headers);
}

void
CsvSink::row(const std::vector<std::string> &cells)
{
    if (!out_.is_open())
        return;
    for (std::size_t i = 0; i < cells.size(); ++i)
        out_ << (i ? "," : "") << cells[i];
    out_ << "\n";
}

} // namespace gpushield::harness
