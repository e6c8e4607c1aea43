#include "common/config.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/log.h"

namespace hornet {

namespace {

std::string
trim(const std::string &s)
{
    const char *ws = " \t\r\n";
    auto b = s.find_first_not_of(ws);
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(ws);
    return s.substr(b, e - b + 1);
}

} // namespace

Config
Config::from_string(const std::string &text)
{
    Config cfg;
    std::istringstream in(text);
    std::string line;
    std::string section;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto comment = line.find_first_of("#;");
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                fatal(strcat("config line ", lineno, ": unterminated section"));
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal(strcat("config line ", lineno, ": expected key = value"));
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal(strcat("config line ", lineno, ": empty key"));
        if (!section.empty())
            key = section + "." + key;
        cfg.values_[key] = value;
    }
    return cfg;
}

Config
Config::from_file(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return from_string(ss.str());
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    std::ostringstream os;
    os << value;
    values_[key] = os.str();
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

const std::string *
Config::lookup(const std::string &key) const
{
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::get_string(const std::string &key, const std::string &def) const
{
    const std::string *v = lookup(key);
    return v == nullptr ? def : *v;
}

std::int64_t
Config::get_int(const std::string &key, std::int64_t def) const
{
    const std::string *s = lookup(key);
    if (s == nullptr)
        return def;
    char *end = nullptr;
    std::int64_t v = std::strtoll(s->c_str(), &end, 0);
    if (end == s->c_str() || *end != '\0')
        fatal(strcat("config key '", key, "': bad integer '", *s, "'"));
    return v;
}

double
Config::get_double(const std::string &key, double def) const
{
    const std::string *s = lookup(key);
    if (s == nullptr)
        return def;
    char *end = nullptr;
    double v = std::strtod(s->c_str(), &end);
    if (end == s->c_str() || *end != '\0')
        fatal(strcat("config key '", key, "': bad number '", *s, "'"));
    return v;
}

bool
Config::get_bool(const std::string &key, bool def) const
{
    const std::string *s = lookup(key);
    if (s == nullptr)
        return def;
    const std::string &v = *s;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal(strcat("config key '", key, "': bad boolean '", v, "'"));
}

std::string
Config::require_string(const std::string &key) const
{
    const std::string *v = lookup(key);
    if (v == nullptr)
        fatal("missing required config key: " + key);
    return *v;
}

std::int64_t
Config::require_int(const std::string &key) const
{
    if (!has(key))
        fatal("missing required config key: " + key);
    return get_int(key, 0);
}

double
Config::require_double(const std::string &key) const
{
    if (!has(key))
        fatal("missing required config key: " + key);
    return get_double(key, 0.0);
}

std::vector<std::int64_t>
Config::get_int_list(const std::string &key,
                     const std::vector<std::int64_t> &def) const
{
    const std::string *s = lookup(key);
    if (s == nullptr)
        return def;
    std::vector<std::int64_t> out;
    std::istringstream in(*s);
    std::string item;
    while (std::getline(in, item, ',')) {
        item = trim(item);
        if (item.empty())
            continue;
        char *end = nullptr;
        std::int64_t v = std::strtoll(item.c_str(), &end, 0);
        if (end == item.c_str() || *end != '\0')
            fatal(strcat("config key '", key, "': bad list item '", item, "'"));
        out.push_back(v);
    }
    return out;
}

std::string
Config::get_enum(const std::string &key, const std::string &def,
                 const std::vector<std::string> &allowed) const
{
    const std::string v = get_string(key, def);
    for (const auto &a : allowed)
        if (v == a)
            return v;
    std::string expected;
    for (const auto &a : allowed) {
        if (!expected.empty())
            expected += ", ";
        expected += a.empty() ? "\"\"" : a;
    }
    fatal(strcat("config key '", key, "': bad value '", v,
                 "' (expected one of: ", expected, ")"));
}

void
Config::reject_unread_keys() const
{
    std::string unread;
    for (const auto &kv : values_) {
        if (read_.count(kv.first) != 0)
            continue;
        if (!unread.empty())
            unread += ", ";
        unread += kv.first;
    }
    if (!unread.empty())
        fatal("config: unknown key(s) nothing read: " + unread);
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
Config::to_string() const
{
    std::ostringstream os;
    for (const auto &kv : values_)
        os << kv.first << " = " << kv.second << "\n";
    return os.str();
}

} // namespace hornet
