#include "fuzz/fuzzer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "campaign/cache.h"
#include "campaign/journal.h"
#include "campaign/signature.h"
#include "fuzz/corpus.h"
#include "fuzz/minimize.h"
#include "ir/serialize.h"
#include "rt/decode.h"
#include "support/hash.h"
#include "support/observe.h"
#include "support/stats.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace portend::fuzz {

namespace {

/** Everything one campaign index produces. */
struct IndexResult
{
    GeneratedProgram gen;
    OracleVerdict verdict;
    bool deep = false;
    bool cached = false; ///< verdict came from the campaign cache
};

/**
 * Shared persistence state of one --campaign fuzz run: the verdict
 * cache (probed by the workers), the completion journal (appended
 * under a mutex — the fsync'd write must not interleave), and the
 * hit counter the summary reports.
 */
struct CampaignState
{
    campaign::VerdictCache cache;
    campaign::JournalWriter journal;
    std::mutex journal_mu;
    std::atomic<int> cache_hits{0};
    int journal_replays = 0;

    explicit CampaignState(const std::string &dir)
        : cache(dir + "/cache")
    {}
};

/**
 * Hash every oracle dial a verdict is a function of — the fuzz
 * analogue of campaign::configHash. `deep` is a dial: a deep verdict
 * carries extra checks, so deep and shallow runs of the same program
 * must cache under different signatures. detection_seed is the whole
 * schedule; jobs never appears (the oracle is single-index).
 */
std::uint64_t
oracleConfigHash(const OracleOptions &o)
{
    std::string s = "portend-fuzz-oracle-v2";
    s += ";seed=" + std::to_string(o.detection_seed);
    s += ";mp=" + std::to_string(o.mp);
    s += ";ma=" + std::to_string(o.ma);
    s += ";max_steps=" + std::to_string(o.max_steps);
    s += ";states=" + std::to_string(o.executor_max_states);
    s += ";explore=";
    s += explore::exploreModeName(o.explore);
    s += ";deep=";
    s += o.deep ? "1" : "0";
    return fnv1a(s);
}

/** 8-hex-digit content id for deterministic entry names. */
std::string
hex8(std::uint64_t h)
{
    static const char *digits = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

/** Generate + judge one campaign index. */
IndexResult
runIndex(std::uint64_t index, const FuzzOptions &opts,
         CampaignState *camp)
{
    IndexResult r;
    r.gen = generateProgram(opts.fuzz_seed, index, opts.gen);
    r.deep = opts.deep_every > 0 &&
             index % static_cast<std::uint64_t>(opts.deep_every) == 0;

    if (!r.gen.verify_errors.empty()) {
        // The generator itself emitted an invalid program: that is a
        // finding, not a crash.
        std::string all;
        for (const std::string &e : r.gen.verify_errors)
            all += (all.empty() ? "" : "; ") + e;
        r.verdict.checks.push_back({"verify", false, all});
        return r;
    }

    OracleOptions o = opts.oracle;
    o.detection_seed = opts.detection_seed;
    o.deep = r.deep;

    campaign::UnitKey key;
    std::string sig;
    if (camp) {
        key.fingerprint = rt::programFingerprint(r.gen.program);
        key.trace_hash = 0; // the oracle runs its own detection
        key.config_hash = oracleConfigHash(o);
        sig = campaign::signatureHex(key);
        if (std::optional<campaign::CacheEntry> hit =
                camp->cache.probe(sig)) {
            // An undeserializable payload (version skew, torn bytes
            // the byte-count check somehow missed) falls through to
            // a re-run — always sound, never fatal.
            if (std::optional<OracleVerdict> v =
                    deserializeVerdict(hit->payload)) {
                r.verdict = std::move(*v);
                r.cached = true;
                camp->cache_hits.fetch_add(
                    1, std::memory_order_relaxed);
                if (obs::Collector *c = obs::collector())
                    c->add(obs::Counter::CampaignCacheHits, 1);
                return r;
            }
        }
    }

    r.verdict = opts.judge ? opts.judge(r.gen.program, o)
                           : runOracle(r.gen.program, o);

    if (camp) {
        campaign::CacheEntry e;
        e.sig = sig;
        e.key = key;
        e.name = "fuzz:" + std::to_string(index);
        e.payload = serializeVerdict(r.verdict);
        camp->cache.store(e);
        if (camp->journal.isOpen()) {
            campaign::JournalRecord rec;
            rec.unit = static_cast<std::size_t>(index);
            rec.kind = "fuzz";
            rec.name = std::to_string(index);
            rec.sig = sig;
            rec.key = key;
            std::lock_guard<std::mutex> lock(camp->journal_mu);
            camp->journal.append(rec);
        }
        if (obs::Collector *c = obs::collector())
            c->add(obs::Counter::CampaignCacheMisses, 1);
    }
    return r;
}

/** Oracle re-run used by minimization probes and entry snapshots. */
OracleVerdict
judgeRecipe(const ProgramRecipe &recipe, const FuzzOptions &opts,
            bool deep)
{
    GeneratedProgram gen = buildProgram(recipe);
    if (!gen.verify_errors.empty()) {
        OracleVerdict v;
        std::string all;
        for (const std::string &e : gen.verify_errors)
            all += (all.empty() ? "" : "; ") + e;
        v.checks.push_back({"verify", false, all});
        return v;
    }
    OracleOptions o = opts.oracle;
    o.detection_seed = opts.detection_seed;
    o.deep = deep;
    return opts.judge ? opts.judge(gen.program, o)
                      : runOracle(gen.program, o);
}

/** Persist one minimized recipe as a corpus entry. */
std::string
persistEntry(const ProgramRecipe &recipe, const OracleVerdict &v,
             const std::string &kind, const std::string &check,
             std::uint64_t index, const FuzzOptions &opts,
             std::vector<std::string> &io_errors)
{
    GeneratedProgram gen = buildProgram(recipe);
    CorpusEntry entry;
    entry.kind = kind;
    entry.check = check;
    entry.fuzz_seed = opts.fuzz_seed;
    entry.index = index;
    entry.detection_seed = opts.detection_seed;
    entry.explore = explore::exploreModeName(opts.oracle.explore);
    entry.signature = v.signature();
    entry.witness = v.witness_text;
    entry.recipe_text = recipe.serialize();
    entry.program_text = ir::serializeProgram(gen.program);
    entry.trace_text = v.trace_text;
    entry.name =
        (kind == "regression" ? "sig-" : "bug-" + check + "-") +
        hex8(fnv1a(entry.kind == "regression" ? entry.signature
                                              : entry.recipe_text));
    std::string error;
    if (!saveEntry(opts.corpus_dir, entry, &error)) {
        io_errors.push_back(error);
        return "";
    }
    return entry.name;
}

} // namespace

std::string
FuzzResult::summaryText() const
{
    std::ostringstream os;
    os << "fuzz summary\n";
    os << "  fuzz seed: " << fuzz_seed
       << "  detection seed: " << detection_seed << "\n";
    os << "  programs: " << programs << " (" << verifier_clean
       << " verifier-clean)\n";
    os << "  sync idioms (programs containing each):\n";
    for (const auto &[name, n] : idiom_counts)
        os << "    " << name << " " << n << "\n";
    os << "  detection outcomes:\n";
    for (const auto &[name, n] : outcome_counts)
        os << "    " << name << " " << n << "\n";
    os << "  verdict classes (clusters):\n";
    for (const auto &[name, n] : class_counts)
        os << "    " << name << " " << n << "\n";
    os << "  oracle checks (runs / failures):\n";
    for (const auto &[name, n] : check_runs) {
        auto it = check_failures.find(name);
        os << "    " << name << " " << n << " / "
           << (it == check_failures.end() ? 0 : it->second) << "\n";
    }
    if (!baseline_counts.empty()) {
        os << "  baseline disagreements (expected, recorded):\n";
        for (const auto &[name, n] : baseline_counts)
            os << "    " << name << " " << n << "\n";
    }
    if (!corpus_dir.empty()) {
        os << "  corpus: " << regression_entries << " regression + "
           << disagreement_entries << " disagreement entr(ies) in "
           << corpus_dir << "\n";
    }
    if (!campaign_dir.empty()) {
        os << "  campaign: " << cache_hits << " cache hit(s), "
           << journal_replays << " journal record(s) replayed in "
           << campaign_dir << "\n";
    }
    for (const FuzzFinding &f : findings) {
        os << "  FINDING[" << f.index << "] check=" << f.check
           << " repro=" << f.minimized.serialize() << "\n";
        os << "    " << f.detail << "\n";
    }
    os << "  unexplained oracle disagreements: " << flagged << "\n";
    return os.str();
}

FuzzResult
runFuzz(const FuzzOptions &opts)
{
    obs::Span span("fuzz", "campaign");
    Stopwatch sw;
    FuzzResult res;
    res.fuzz_seed = opts.fuzz_seed;
    res.detection_seed = opts.detection_seed;
    res.corpus_dir = opts.corpus_dir;
    res.campaign_dir = opts.campaign_dir;

    const int jobs = ThreadPool::resolveJobs(opts.jobs);

    // -- Campaign persistence (opt-in) -------------------------------
    std::unique_ptr<CampaignState> camp;
    if (!opts.campaign_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.campaign_dir, ec);
        camp = std::make_unique<CampaignState>(opts.campaign_dir);
        const std::string journal_path =
            opts.campaign_dir + "/journal.jsonl";
        camp->journal_replays = static_cast<int>(
            campaign::loadJournal(journal_path).size());
        camp->journal.open(journal_path);
        if (obs::Collector *c = obs::collector())
            c->add(obs::Counter::CampaignJournalReplays,
                   static_cast<std::uint64_t>(camp->journal_replays));
    }

    // -- Generation + oracle, fanned out on the thread pool ----------
    std::vector<IndexResult> results;
    if (opts.seconds > 0.0) {
        // Time-boxed mode: sequential-batch until the box is spent.
        // Program count depends on the host (see fuzzer.h).
        std::uint64_t next = 0;
        while (sw.seconds() < opts.seconds) {
            const std::size_t batch =
                static_cast<std::size_t>(std::max(1, jobs)) * 4;
            const std::size_t base = results.size();
            results.resize(base + batch);
            ThreadPool::parallelFor(jobs, batch, [&] {
                return [&, base](std::size_t i) {
                    results[base + i] =
                        runIndex(next + i, opts, camp.get());
                };
            });
            next += batch;
        }
    } else {
        const std::size_t n =
            static_cast<std::size_t>(std::max(0, opts.budget));
        results.resize(n);
        ThreadPool::parallelFor(jobs, n, [&] {
            return [&](std::size_t i) {
                results[i] = runIndex(i, opts, camp.get());
            };
        });
    }

    // -- Deterministic fold in index order ---------------------------
    std::size_t fold_index = 0;
    for (const IndexResult &r : results) {
        // `--progress jsonl`: one line per fuzz iteration, emitted
        // here (sequentially, in index order) rather than from the
        // workers, so the stream order is deterministic too.
        if (obs::progress()) {
            char buf[192];
            std::snprintf(buf, sizeof buf,
                          "{\"event\": \"fuzz_iteration\", "
                          "\"index\": %zu, \"outcome\": \"%s\", "
                          "\"flagged\": %s}",
                          fold_index, r.verdict.outcome.c_str(),
                          r.verdict.flagged() ? "true" : "false");
            obs::progressLine(buf);
        }
        fold_index += 1;
        if (obs::Collector *c = obs::collector()) {
            c->add(obs::Counter::FuzzPrograms, 1);
            c->add(obs::Counter::FuzzFlagged,
                   r.verdict.flagged() ? 1 : 0);
            if (camp)
                c->add(obs::Counter::CampaignUnits, 1);
        }
        res.programs += 1;
        if (r.gen.verify_errors.empty())
            res.verifier_clean += 1;
        for (const std::string &idiom : r.gen.idioms)
            res.idiom_counts[idiom] += 1;
        if (!r.verdict.outcome.empty())
            res.outcome_counts[r.verdict.outcome] += 1;
        for (const auto &[cls, n] : r.verdict.class_counts)
            res.class_counts[cls] += n;
        for (const CheckResult &c : r.verdict.checks) {
            res.check_runs[c.name] += 1;
            if (!c.ok)
                res.check_failures[c.name] += 1;
        }
        for (const auto &[name, n] : r.verdict.baseline_counts)
            res.baseline_counts[name] += n;
        if (r.verdict.flagged())
            res.flagged += 1;
        res.metrics.merge(r.verdict.metrics);
    }

    // -- Minimization + corpus persistence (sequential, in index
    //    order, so corpora are byte-identical across runs) ----------
    std::set<std::string> seen_signatures;
    std::vector<std::string> io_errors;
    int new_entries = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const IndexResult &r = results[i];

        if (r.verdict.flagged()) {
            const std::string check = r.verdict.firstFailure();
            // Deep (metamorphic re-execution) probes are only needed
            // when the falsified check is itself a deep one; cheap
            // checks are decided before the deep section runs.
            const bool deep_check = check == "determinism" ||
                                    check == "jobs-invariance" ||
                                    check == "k-monotonicity";
            MinimizeResult min = minimizeRecipe(
                r.gen.recipe,
                [&](const ProgramRecipe &cand) {
                    return judgeRecipe(cand, opts, deep_check)
                               .firstFailure() == check;
                });
            FuzzFinding finding;
            finding.index = static_cast<std::uint64_t>(i);
            finding.check = check;
            for (const CheckResult &c : r.verdict.checks)
                if (!c.ok && c.name == check)
                    finding.detail = c.detail;
            finding.minimized = min.recipe;
            // A 'verify' finding has no structurally valid program to
            // replay (deserialization would reject it forever), so
            // the minimized recipe in the summary is the reproducer;
            // everything else is persisted for `corpus run` triage.
            if (!opts.corpus_dir.empty() && check != "verify") {
                OracleVerdict mv =
                    judgeRecipe(min.recipe, opts, deep_check);
                finding.entry_name = persistEntry(
                    min.recipe, mv, "disagreement", check,
                    static_cast<std::uint64_t>(i), opts, io_errors);
                if (!finding.entry_name.empty())
                    res.disagreement_entries += 1;
            }
            res.findings.push_back(std::move(finding));
            continue;
        }

        if (opts.corpus_dir.empty() ||
            new_entries >= opts.max_new_entries) {
            continue;
        }
        const std::string sig = r.verdict.signature();
        if (!seen_signatures.insert(sig).second)
            continue;
        MinimizeResult min = minimizeRecipe(
            r.gen.recipe, [&](const ProgramRecipe &cand) {
                OracleVerdict v = judgeRecipe(cand, opts, false);
                return !v.flagged() && v.signature() == sig;
            });
        OracleVerdict mv = judgeRecipe(min.recipe, opts, false);
        if (!persistEntry(min.recipe, mv, "regression", "",
                          static_cast<std::uint64_t>(i), opts,
                          io_errors)
                 .empty()) {
            res.regression_entries += 1;
            new_entries += 1;
        }
    }
    for (const std::string &e : io_errors) {
        res.findings.push_back(
            FuzzFinding{0, "corpus-io", e, ProgramRecipe{}, ""});
        res.flagged += 1;
    }

    if (camp) {
        res.cache_hits =
            camp->cache_hits.load(std::memory_order_relaxed);
        res.journal_replays = camp->journal_replays;
        camp->journal.close();
    }

    if (obs::Collector *c = obs::collector()) {
        c->level(obs::Gauge::FuzzCorpusSize,
                 static_cast<std::uint64_t>(res.regression_entries +
                                            res.disagreement_entries));
    }
    span.arg("programs", res.programs);
    span.arg("flagged", res.flagged);
    res.seconds = sw.seconds();
    return res;
}

} // namespace portend::fuzz
