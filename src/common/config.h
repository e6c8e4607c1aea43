/**
 * @file
 * Key/value configuration store with typed accessors and an INI-style
 * text parser. Used to drive whole-system construction so that every
 * hardware parameter the paper calls configurable (Table I) is settable
 * from a config file or from code.
 */
#ifndef HORNET_COMMON_CONFIG_H
#define HORNET_COMMON_CONFIG_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hornet {

/**
 * Flat string key/value config with "section.key" naming.
 *
 * Values are stored as strings; typed getters parse on access and
 * fatal() on malformed values. Getters with a default never fail on a
 * missing key; require_* getters fatal() when the key is absent.
 *
 * Every getter records the key it consulted, so a consumer can reject
 * keys nothing read (typos such as `schedual`) once it has finished
 * reading; see reject_unread_keys(). The record makes getters unsafe
 * to call concurrently on one Config.
 */
class Config
{
  public:
    /** Empty config; every getter returns its default. */
    Config() = default;

    /** Parse INI-style text: [section] headers, key = value lines,
     *  '#' or ';' comments. Later duplicates overwrite earlier ones. */
    static Config from_string(const std::string &text);

    /** Load and parse a config file. */
    static Config from_file(const std::string &path);

    /** Set (or overwrite) a value. */
    void set(const std::string &key, const std::string &value);
    /** Set (or overwrite) an integer value. */
    void set(const std::string &key, std::int64_t value);
    /** Set (or overwrite) a floating-point value. */
    void set(const std::string &key, double value);
    /** Set (or overwrite) a boolean value ("true"/"false"). */
    void set(const std::string &key, bool value);

    /** True when @p key is present. */
    bool has(const std::string &key) const;

    /** String value of @p key, or @p def when absent. */
    std::string get_string(const std::string &key,
                           const std::string &def) const;
    /** Integer value of @p key, or @p def when absent. */
    std::int64_t get_int(const std::string &key, std::int64_t def) const;
    /** Floating-point value of @p key, or @p def when absent. */
    double get_double(const std::string &key, double def) const;
    /** Boolean value of @p key, or @p def when absent. */
    bool get_bool(const std::string &key, bool def) const;

    /** String value of @p key; fatal() when absent. */
    std::string require_string(const std::string &key) const;
    /** Integer value of @p key; fatal() when absent. */
    std::int64_t require_int(const std::string &key) const;
    /** Floating-point value of @p key; fatal() when absent. */
    double require_double(const std::string &key) const;

    /** Parse a comma-separated integer list, e.g. "0,7,56,63". */
    std::vector<std::int64_t> get_int_list(
        const std::string &key, const std::vector<std::int64_t> &def) const;

    /**
     * String getter restricted to an enumerated value set: returns
     * @p def when the key is absent, and fatal()s — listing the
     * accepted spellings — when the resulting value (stored or
     * defaulted; @p def gets no exemption) is not one of @p allowed.
     * Used for selector keys (sync backend, VCA mode, routing scheme)
     * so a typo dies with a helpful message instead of falling through
     * to a default.
     */
    std::string get_enum(const std::string &key, const std::string &def,
                         const std::vector<std::string> &allowed) const;

    /**
     * fatal() listing every stored key no getter has consulted, when
     * there is one. Call after everything that interprets this config
     * has run (e.g. traffic::run_options_from_config and
     * traffic::build_system), so an unknown or misspelled key fails
     * loudly instead of silently falling back to a default.
     */
    void reject_unread_keys() const;

    /** All keys in sorted order (for dumps and tests). */
    std::vector<std::string> keys() const;

    /** Serialize back to INI text (sorted, sectionless keys first). */
    std::string to_string() const;

  private:
    /** Stored value of @p key (null when absent); records the read. */
    const std::string *lookup(const std::string &key) const;

    std::map<std::string, std::string> values_;
    /// Keys consulted by a getter (present or not).
    mutable std::set<std::string> read_;
};

} // namespace hornet

#endif // HORNET_COMMON_CONFIG_H
