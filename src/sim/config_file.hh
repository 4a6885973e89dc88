/**
 * @file
 * ConfigFile: the text-configuration layer (paper §3: "over 100
 * parameters" — without a rebuild per scenario).
 *
 * The format is the INI-style key=value dialect used by the
 * gpgpu-sim configuration family: `[section]` headers, `key = value`
 * assignments, `#`/`;` comments, blank lines.  Keys are addressed as
 * "section.key".  Values stay strings until a typed accessor
 * converts them; conversion failures and unknown keys are reported
 * with the originating file:line so sweep scripts fail loudly.
 *
 * Layering: a ConfigFile accumulates assignments in application
 * order — file contents first, then environment overrides
 * (ATTILA_CONFIG_SET), then `--set key=value` command-line
 * overrides.  Later assignments shadow earlier ones but keep the
 * earlier origin available for diagnostics.
 *
 * Consumption tracking powers unknown-key detection: every accessor
 * marks its key consumed, and failOnUnconsumed() turns any leftover
 * assignment (a typo, a key from a newer simulator version) into a
 * ConfigError pointing at the offending file:line.
 */

#ifndef ATTILA_SIM_CONFIG_FILE_HH
#define ATTILA_SIM_CONFIG_FILE_HH

#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace attila::sim
{

/**
 * A configuration error carrying file:line provenance.  Derives from
 * SimError so existing harnesses that contain simulator failures
 * catch configuration failures the same way.
 */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string& msg) : SimError(msg) {}
};

/** Parsed key=value store with provenance and typed accessors. */
class ConfigFile
{
  public:
    /** One assignment as it appeared in the input. */
    struct Entry
    {
        std::string value;
        std::string origin; ///< "file.cfg:12", "--set", "env".
        bool consumed = false;
    };

    /** Parse @p path, layering its assignments over the current
     * contents.  Throws ConfigError on I/O or syntax errors. */
    void parseFile(const std::string& path);

    /** Parse @p text as if it were a file named @p name. */
    void parseString(const std::string& text,
                     const std::string& name = "<config>");

    /**
     * Apply one "section.key=value" override (the `--set` and
     * ATTILA_CONFIG_SET layers).  @p origin tags diagnostics.
     */
    void setOverride(const std::string& assignment,
                     const std::string& origin);

    /**
     * Split a list of "section.key=value" assignments (the
     * ATTILA_CONFIG_SET form).  ';' always separates; ',' separates
     * only where another section.key= begins, so values that contain
     * commas (cache geometries such as "32:128:4,A:8") stay whole.
     * Blank items are dropped.
     */
    static std::vector<std::string> splitAssignments(
        const std::string& list);

    /** Direct assignment of an already-split key/value pair. */
    void set(const std::string& key, const std::string& value,
             const std::string& origin);

    bool has(const std::string& key) const;

    /** All keys in sorted order (for dumps and diagnostics). */
    std::vector<std::string> keys() const;

    // ===== Typed accessors ========================================
    // Each accessor marks the key consumed; absent keys return the
    // default untouched, so a partial file composes with compiled-in
    // defaults.  Conversion failures throw ConfigError with the
    // assignment's origin.

    std::string getString(const std::string& key,
                          const std::string& def = "") const;
    bool getBool(const std::string& key, bool def = false) const;
    u32 getU32(const std::string& key, u32 def = 0) const;
    u64 getU64(const std::string& key, u64 def = 0) const;

    /** Raw entry lookup (marks consumed); nullptr when absent. */
    const Entry* find(const std::string& key) const;

    /**
     * Throw ConfigError naming every assignment no accessor
     * consumed — the unknown-key diagnostic.  @p what names the
     * consumer ("GpuConfig") in the message.
     */
    void failOnUnconsumed(const std::string& what) const;

    /** Round-trip writer: sorted sections, `key = value` lines. */
    std::string dump() const;

    bool empty() const { return _entries.empty(); }

  private:
    // std::map keeps keys sorted for dump() and deterministic
    // diagnostics; config loading is cold path.
    std::map<std::string, Entry> _entries;
};

} // namespace attila::sim

#endif // ATTILA_SIM_CONFIG_FILE_HH
