#include "sim/config_file.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace attila::sim
{

namespace
{

std::string
trim(const std::string& s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

[[noreturn]] void
configError(const std::string& origin, const std::string& msg)
{
    throw ConfigError("config: " + origin + ": " + msg);
}

bool
validKey(const std::string& key)
{
    if (key.empty())
        return false;
    for (char c : key) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '_' && c != '.')
            return false;
    }
    return true;
}

} // anonymous namespace

void
ConfigFile::parseFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        throw ConfigError("config: cannot open '" + path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    parseString(text.str(), path);
}

void
ConfigFile::parseString(const std::string& text,
                        const std::string& name)
{
    std::istringstream in(text);
    std::string line;
    std::string section;
    u32 lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::string origin =
            name + ":" + std::to_string(lineNo);
        // Strip comments (a # or ; outside a value's leading text
        // starts one; values themselves never contain either).
        const std::size_t hash = line.find_first_of("#;");
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']') {
                configError(origin, "malformed section header '" +
                                        line + "'");
            }
            section = trim(line.substr(1, line.size() - 2));
            if (!validKey(section)) {
                configError(origin, "malformed section name '" +
                                        section + "'");
            }
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            configError(origin,
                        "expected 'key = value', got '" + line + "'");
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (!validKey(key)) {
            configError(origin, "malformed key '" + key + "'");
        }
        const std::string full =
            section.empty() ? key : section + "." + key;
        set(full, value, origin);
    }
}

void
ConfigFile::setOverride(const std::string& assignment,
                        const std::string& origin)
{
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos) {
        configError(origin, "expected 'section.key=value', got '" +
                                assignment + "'");
    }
    const std::string key = trim(assignment.substr(0, eq));
    const std::string value = trim(assignment.substr(eq + 1));
    if (!validKey(key)) {
        configError(origin, "malformed key '" + key + "'");
    }
    set(key, value, origin);
}

std::vector<std::string>
ConfigFile::splitAssignments(const std::string& list)
{
    constexpr auto npos = std::string::npos;
    std::vector<std::string> out;
    std::istringstream in(list);
    std::string segment;
    while (std::getline(in, segment, ';')) {
        std::size_t begin = 0;
        for (std::size_t comma = segment.find(','); comma != npos;
             comma = segment.find(',', comma + 1)) {
            // What follows the comma up to the next '=': a dotted key
            // starts a new assignment, a blank tail ends the list.
            const std::size_t eq = segment.find('=', comma);
            const std::string next =
                trim(segment.substr(comma + 1, eq - comma - 1));
            const bool split =
                eq == npos ? next.empty()
                           : validKey(next) &&
                                 next.find('.') != npos;
            if (split) {
                out.push_back(segment.substr(begin, comma - begin));
                begin = comma + 1;
            }
        }
        out.push_back(segment.substr(begin));
    }
    std::erase_if(out, [](const std::string& item) {
        return trim(item).empty();
    });
    return out;
}

void
ConfigFile::set(const std::string& key, const std::string& value,
                const std::string& origin)
{
    Entry& entry = _entries[key];
    entry.value = value;
    entry.origin = origin;
    entry.consumed = false;
}

bool
ConfigFile::has(const std::string& key) const
{
    return _entries.count(key) != 0;
}

std::vector<std::string>
ConfigFile::keys() const
{
    std::vector<std::string> out;
    out.reserve(_entries.size());
    for (const auto& [key, entry] : _entries)
        out.push_back(key);
    return out;
}

const ConfigFile::Entry*
ConfigFile::find(const std::string& key) const
{
    auto it = _entries.find(key);
    if (it == _entries.end())
        return nullptr;
    // Consumption marking is logically const: it tracks reads, not
    // configuration state.
    const_cast<Entry&>(it->second).consumed = true;
    return &it->second;
}

std::string
ConfigFile::getString(const std::string& key,
                      const std::string& def) const
{
    const Entry* e = find(key);
    return e ? e->value : def;
}

bool
ConfigFile::getBool(const std::string& key, bool def) const
{
    const Entry* e = find(key);
    if (!e)
        return def;
    const std::string& v = e->value;
    if (v == "1" || v == "true" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "off")
        return false;
    configError(e->origin, "key '" + key + "': expected boolean "
                           "(0|1|false|true|off|on), got '" +
                               v + "'");
}

u32
ConfigFile::getU32(const std::string& key, u32 def) const
{
    const u64 v = getU64(key, def);
    if (v > ~u32{0}) {
        const Entry* e = find(key);
        configError(e->origin, "key '" + key + "': value " +
                                   std::to_string(v) +
                                   " exceeds 32 bits");
    }
    return static_cast<u32>(v);
}

u64
ConfigFile::getU64(const std::string& key, u64 def) const
{
    const Entry* e = find(key);
    if (!e)
        return def;
    const std::string& v = e->value;
    u64 result = 0;
    std::size_t pos = 0;
    bool ok = !v.empty();
    if (ok) {
        try {
            result = std::stoull(v, &pos, 0);
        } catch (const std::exception&) {
            ok = false;
        }
    }
    if (!ok || pos != v.size()) {
        configError(e->origin, "key '" + key +
                                   "': expected unsigned integer, "
                                   "got '" +
                                   v + "'");
    }
    return result;
}

void
ConfigFile::failOnUnconsumed(const std::string& what) const
{
    std::vector<std::string> unknown;
    for (const auto& [key, entry] : _entries) {
        if (!entry.consumed) {
            unknown.push_back(entry.origin + ": unknown " + what +
                              " key '" + key + "'");
        }
    }
    if (unknown.empty())
        return;
    std::string msg = "config: ";
    for (std::size_t i = 0; i < unknown.size(); ++i) {
        if (i)
            msg += "\nconfig: ";
        msg += unknown[i];
    }
    throw ConfigError(msg);
}

std::string
ConfigFile::dump() const
{
    // Group by section; std::map ordering makes the dump canonical,
    // so equal configurations produce byte-identical text.
    std::ostringstream out;
    std::string section;
    bool first = true;
    for (const auto& [key, entry] : _entries) {
        const std::size_t dot = key.rfind('.');
        const std::string sec =
            dot == std::string::npos ? "" : key.substr(0, dot);
        const std::string leaf =
            dot == std::string::npos ? key : key.substr(dot + 1);
        if (sec != section || first) {
            if (!first)
                out << "\n";
            out << "[" << sec << "]\n";
            section = sec;
            first = false;
        }
        out << leaf << " = " << entry.value << "\n";
    }
    return out.str();
}

} // namespace attila::sim
