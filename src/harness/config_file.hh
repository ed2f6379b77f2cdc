/**
 * @file
 * Declarative controller configuration files.
 *
 * A config file is a JSON document describing one DRAMCtrlConfig — the
 * declarative counterpart of picking a preset and layering CLI
 * overrides. The schema mirrors the config structure:
 *
 *   {
 *     "format": "dramctrl-config-v1",      // optional, checked if set
 *     "preset": "ddr4_2400",               // optional base preset
 *     "organisation": { "banksPerRank": 16, ... },
 *     "timing":       { "tCK": 0.833, ... },   // values in ns
 *     "controller":   { "schedPolicy": "frfcfs", ... },
 *     "plugins":      [ { "kind": "ecc", ... }, ... ]
 *   }
 *
 * When "preset" is given the named preset supplies every default and
 * the sections override it field by field; without it the defaults are
 * the DRAMCtrlConfig member initialisers. Timing and latency values
 * are nanoseconds (doubles), exactly the units the preset factories
 * use, so a file transcribing a preset parses to a byte-identical
 * configuration.
 *
 * Parsing is strict: unknown keys, type mismatches, counts that are
 * fractional, negative or too large for their field, durations that
 * are negative or not finite, and malformed JSON are hard errors with
 * messages naming the offending section and key — misspelling "tRCD"
 * must not silently leave the default in place. Each section is one
 * field table (validate::Field), which both reads and writes it.
 *
 * dumpConfig() emits every knob; its output re-parses (with no preset
 * installed) to a configuration with an identical fingerprint, which
 * is how tools/tests prove round-trip fidelity.
 */

#ifndef DRAMCTRL_HARNESS_CONFIG_FILE_H
#define DRAMCTRL_HARNESS_CONFIG_FILE_H

#include <cstdint>
#include <optional>
#include <string>

#include "dram/dram_config.hh"
#include "validate/json_io.hh"

namespace dramctrl {
namespace harness {

/**
 * Parse a config document already read as JSON into @p cfg; the
 * strict reader behind parseConfigText(), for documents embedded in
 * other files (fuzz repro files).
 */
bool configFromJson(const validate::Json &j, DRAMCtrlConfig &cfg,
                    std::string *base_preset = nullptr,
                    std::string *err = nullptr);

/**
 * Parse a config document from JSON text into @p cfg.
 *
 * @param base_preset when non-null, receives the "preset" key's value
 *                    ("" if the file names none).
 * @return false (with *err set when given) on malformed input; @p cfg
 *         is unspecified on failure.
 */
bool parseConfigText(const std::string &text, DRAMCtrlConfig &cfg,
                     std::string *base_preset = nullptr,
                     std::string *err = nullptr);

/**
 * Load a config file, fatal() on any error (missing file, malformed
 * JSON, unknown keys, inconsistent values — cfg.check() runs too).
 */
DRAMCtrlConfig loadConfigFile(const std::string &path,
                              std::string *base_preset = nullptr);

/**
 * Emit every knob of @p cfg as a config document. @p preset_name, when
 * non-empty, is recorded as the "preset" key (informational: every
 * field is still emitted explicitly, so re-parsing does not depend on
 * the preset being registered... but it must name a real preset if it
 * is to be re-parsed, since unknown presets are errors).
 */
validate::Json configToJson(const DRAMCtrlConfig &cfg,
                            const std::string &preset_name = "");

/** configToJson() pretty-printed with a trailing newline. */
std::string dumpConfig(const DRAMCtrlConfig &cfg,
                       const std::string &preset_name = "");

/** Write dumpConfig() to @p path; false on I/O failure. */
bool writeConfigFile(const std::string &path, const DRAMCtrlConfig &cfg,
                     const std::string &preset_name = "");

/**
 * Load the config file @p path (fatal() on any error) and register it
 * as an in-process preset, so every preset-name lookup in this process
 * (sweep axes, batch rows, labels, power) resolves to exactly the
 * file's configuration. The name is the file's base preset, which it
 * shadows, or "config:<path>" when the file names none.
 * @return the registered preset name.
 */
std::string registerConfigPreset(const std::string &path);

/** Where a run's controller configuration comes from, plus overrides. */
struct ConfigRequest
{
    /** A controller or system preset; unused with @ref configFile. */
    std::string preset = "ddr3_1333";
    /** A config file, registered with registerConfigPreset(). */
    std::string configFile;
    /** Page policy, address mapping and scheduler names; empty keeps. */
    std::string page;
    std::string mapping;
    std::string sched;
    /** Device temperature; unset keeps the base configuration's. */
    std::optional<double> temperatureC;
    /** Switch the power-down extension on. */
    bool powerDown = false;
    /** Plugin chain (csv), appended to the base configuration's. */
    std::string plugins;
    /** Plugin knobs for the chain: ecc BER (< 0 = spec default), ecc
     *  seed and prac threshold (0 = spec default). */
    double eccBer = -1.0;
    std::uint64_t eccSeed = 0;
    unsigned pracThreshold = 0;
};

/** A resolved ConfigRequest. */
struct ResolvedConfig
{
    DRAMCtrlConfig cfg;
    /** The preset name the run goes by (a config file's registered name). */
    std::string preset;
    /** A system preset's channel count; 0 for a controller preset. */
    unsigned channels = 0;
};

/**
 * The one config resolver of the tools: the base (config file, system
 * preset or controller preset), then the overrides of @p req, then
 * DRAMCtrlConfig::check(). fatal() on unknown names.
 */
ResolvedConfig resolveConfig(const ConfigRequest &req);

/**
 * Configuration identity hash: FNV-1a over cfg.describe(). Two configs
 * with equal fingerprints drive the controllers identically (the same
 * hash guards checkpoint restore as "cfgHash").
 */
std::uint64_t configFingerprint(const DRAMCtrlConfig &cfg);

} // namespace harness
} // namespace dramctrl

#endif // DRAMCTRL_HARNESS_CONFIG_FILE_H
