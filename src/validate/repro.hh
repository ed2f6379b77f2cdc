/**
 * @file
 * Self-contained reproducer files for fuzz failures.
 *
 * A repro file ("dramctrl-fuzz-repro-v2") captures everything a
 * failing differential run needs to be replayed in a fresh process:
 * the full controller configuration, embedded as a
 * "dramctrl-config-v1" document (harness/config_file.hh: every knob,
 * so the file stays valid even if presets drift, and read as strictly
 * as a config file), the stream parameters and seed, the — usually
 * shrunk — explicit request stream, the tolerances, and any injected
 * fault. `fuzz_cli --repro file.json` and the validate_repro test
 * target replay them.
 */

#ifndef DRAMCTRL_VALIDATE_REPRO_H
#define DRAMCTRL_VALIDATE_REPRO_H

#include <string>

#include "validate/config_fuzzer.hh"
#include "validate/diff_runner.hh"
#include "validate/json_io.hh"
#include "validate/request_stream.hh"

namespace dramctrl {
namespace validate {

/** One replayable fuzz scenario. */
struct ReproFile
{
    FuzzCase fc;
    std::uint64_t streamSeed = 0;
    /**
     * Explicit request stream. When empty, replay regenerates it from
     * fc.stream and streamSeed; a shrunk repro stores it explicitly.
     */
    RequestStream stream;
    DiffOptions opts;
    /** Free-form context (what failed, fuzzer seed/run index). */
    std::string note;

    /** The stream replay will actually use. */
    RequestStream materialise() const;
};

Json toJson(const ReproFile &repro);
bool fromJson(const Json &j, ReproFile &repro,
              std::string *err = nullptr);

/** Write @p repro to @p path (pretty-printed). @return success. */
bool writeReproFile(const std::string &path, const ReproFile &repro);

/** Load and validate a repro file. @return success; *err on failure. */
bool loadReproFile(const std::string &path, ReproFile &repro,
                   std::string *err = nullptr);

/** Replay: run the differential check the file describes. */
DiffResult replay(const ReproFile &repro);

} // namespace validate
} // namespace dramctrl

#endif // DRAMCTRL_VALIDATE_REPRO_H
