/**
 * @file
 * On-disk reproducer corpus.
 *
 * Each corpus entry is one directory holding a minimized PIL program
 * (ir::serializeProgram text), the schedule trace of its detection
 * run (ScheduleTrace::serialize text), and a small key=value
 * metadata file recording how the program was grown (recipe, seeds)
 * and what behavior it must reproduce (the oracle signature, or the
 * oracle check it falsified):
 *
 *   <corpus>/<entry>/meta.txt
 *   <corpus>/<entry>/program.pil
 *   <corpus>/<entry>/trace.txt
 *
 * Two entry kinds:
 *  - "regression": a minimized exemplar of a distinct behavior
 *    signature. Replaying must reproduce the signature, the recorded
 *    trace, and a clean oracle — the corpus is a regression suite
 *    every future PR can run (`portend corpus run <dir>`).
 *  - "disagreement": a minimized oracle falsifier, written by a
 *    campaign for triage. Replaying is "green" only once the
 *    disagreement no longer reproduces (i.e. the bug is fixed);
 *    fresh findings are therefore expected to replay red until
 *    fixed, and live in the campaign's output corpus, not in the
 *    checked-in seed corpus.
 *
 * Everything is plain text so reproducers diff, review, and merge
 * like source files.
 */

#ifndef PORTEND_FUZZ_CORPUS_H
#define PORTEND_FUZZ_CORPUS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/oracle.h"

namespace portend::fuzz {

/** One reproducer. */
struct CorpusEntry
{
    std::string name;              ///< directory name
    std::string kind = "regression"; ///< "regression" | "disagreement"
    std::string check;             ///< failed check (disagreements)
    std::uint64_t fuzz_seed = 0;   ///< campaign seed that found it
    std::uint64_t index = 0;       ///< program index in the campaign
    std::uint64_t detection_seed = 1; ///< schedule seed to replay with

    /**
     * Stage-3 explorer the signature was recorded under ("random" |
     * "dpor"; "" = whatever the replay requests). Pinned like
     * detection_seed: a signature names the behavior of one exact
     * configuration, and explorers legitimately differ on races the
     * dpor superset upgrades from "k-witness harmless" to a
     * decisive class. The oracle battery (including the
     * cross-explorer monotonicity checks) still runs under the
     * replay's requested explorer.
     */
    std::string explore;

    std::string signature;         ///< expected oracle signature

    /** Solver-concretized witness inputs of the deep symbolic run
     *  ("cell:name=value ...", "" when none; emitted only when
     *  non-empty, so legacy corpus bytes are unchanged). */
    std::string witness;
    std::string recipe_text;       ///< ProgramRecipe::serialize form
    std::string program_text;      ///< ir::serializeProgram form
    std::string trace_text;        ///< ScheduleTrace::serialize form
};

/**
 * Write @p entry under @p dir (creating directories as needed).
 *
 * @return false with @p error filled on I/O failure
 */
bool saveEntry(const std::string &dir, const CorpusEntry &entry,
               std::string *error = nullptr);

/** Load one entry directory; nullopt with @p error on bad contents. */
std::optional<CorpusEntry> loadEntry(const std::string &entry_dir,
                                     std::string *error = nullptr);

/** Sorted entry directory names under @p dir (those with meta.txt). */
std::vector<std::string> listEntries(const std::string &dir);

/** One entry's replay outcome. */
struct ReplayOutcome
{
    std::string name;
    bool ok = false;
    std::string detail; ///< why the replay failed ("" when ok)
    obs::MetricsShard metrics; ///< the oracle's primary-run metrics
};

/**
 * Re-run one reproducer: deserialize the program, run the oracle
 * with the recorded detection seed, and compare against the entry's
 * expectations (see the file comment for per-kind semantics).
 */
ReplayOutcome replayEntry(const CorpusEntry &entry,
                          const OracleOptions &opts);

/** Whole-corpus replay result. */
struct CorpusRunResult
{
    int total = 0;
    int passed = 0;
    std::vector<ReplayOutcome> outcomes;
    obs::MetricsShard metrics; ///< outcome shards, in entry order

    bool allGreen() const { return passed == total; }
};

/** Replay every entry under @p dir in sorted name order. */
CorpusRunResult runCorpus(const std::string &dir,
                          const OracleOptions &opts);

} // namespace portend::fuzz

#endif // PORTEND_FUZZ_CORPUS_H
