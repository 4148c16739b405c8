#include "fuzz/oracle.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "baseline/adhoc_detector.h"
#include "baseline/heuristic.h"
#include "baseline/replay_analyzer.h"
#include "ir/serialize.h"
#include "ir/verifier.h"
#include "portend/portend.h"
#include "replay/trace.h"
#include "rt/vmstate.h"

namespace portend::fuzz {

bool
OracleVerdict::flagged() const
{
    return std::any_of(checks.begin(), checks.end(),
                       [](const CheckResult &c) { return !c.ok; });
}

std::string
OracleVerdict::firstFailure() const
{
    for (const CheckResult &c : checks)
        if (!c.ok)
            return c.name;
    return "";
}

std::string
OracleVerdict::signature() const
{
    std::ostringstream os;
    os << "out=" << outcome << ";races=" << distinct_races
       << ";classes=";
    bool first = true;
    for (const auto &[cls, n] : class_counts) {
        if (!first)
            os << ",";
        os << cls << ":" << n;
        first = false;
    }
    return os.str();
}

namespace {

/** Portend options for the oracle's full-budget pipeline runs. */
core::PortendOptions
fullOptions(const OracleOptions &o)
{
    core::PortendOptions p;
    p.mp = o.mp;
    p.ma = o.ma;
    p.max_steps = o.max_steps;
    p.executor_max_states = o.executor_max_states;
    p.detection_seed = o.detection_seed;
    p.explore = o.explore;
    p.jobs = 1;
    return p;
}

/** The verdict bytes a pipeline run must reproduce exactly. */
std::string
renderRun(const ir::Program &prog, const core::PortendResult &res)
{
    std::ostringstream os;
    for (const core::PortendReport &r : res.reports)
        os << core::formatReport(prog, r);
    return os.str();
}

/** Distinct raced cell ids of a detection result. */
std::set<int>
racedCells(const core::DetectionResult &det)
{
    std::set<int> cells;
    for (const race::RaceCluster &c : det.clusters)
        cells.insert(c.representative.cell);
    return cells;
}

/** "a ⊆ b"; on failure lists the missing cells by name. */
CheckResult
subsetCheck(const std::string &name, const ir::Program &prog,
            const std::set<int> &a, const std::set<int> &b)
{
    CheckResult r{name, true, ""};
    std::vector<std::string> missing;
    for (int cell : a)
        if (!b.count(cell))
            missing.push_back(prog.cellName(cell));
    if (!missing.empty()) {
        r.ok = false;
        std::ostringstream os;
        os << "cells raced by hb but not by the weaker detector:";
        for (const std::string &m : missing)
            os << " " << m;
        r.detail = os.str();
    }
    return r;
}

} // namespace

OracleVerdict
runOracle(const ir::Program &prog, const OracleOptions &opts)
{
    OracleVerdict v;
    auto check = [&](std::string name, bool ok, std::string detail) {
        v.checks.push_back(
            {std::move(name), ok, ok ? "" : std::move(detail)});
    };

    // -- Structural checks -------------------------------------------
    {
        std::vector<std::string> errors = ir::verifyProgram(prog);
        std::string all;
        for (const std::string &e : errors)
            all += (all.empty() ? "" : "; ") + e;
        check("verify", errors.empty(), all);
        if (!errors.empty())
            return v; // running an invalid program proves nothing
    }
    {
        std::string text = ir::serializeProgram(prog);
        std::string error;
        std::optional<ir::Program> back =
            ir::deserializeProgram(text, &error);
        if (!back) {
            check("roundtrip", false, "deserialize failed: " + error);
        } else {
            check("roundtrip", ir::serializeProgram(*back) == text,
                  "re-serialization differs from original");
        }
    }

    // -- Primary pipeline run ----------------------------------------
    const core::PortendOptions full = fullOptions(opts);
    core::Portend tool(prog, full);
    core::PortendResult r1 = tool.run();

    v.outcome = rt::runOutcomeName(r1.detection.outcome);
    v.distinct_races = static_cast<int>(r1.detection.clusters.size());
    v.dynamic_races = static_cast<int>(r1.detection.dynamic_races);
    for (const core::PortendReport &rep : r1.reports)
        v.class_counts[core::raceClassName(rep.classification.cls)] += 1;
    v.trace_text = r1.detection.trace.serialize();
    v.report_text = renderRun(prog, r1);
    v.metrics = r1.metrics;

    // -- Detector monotonicity ---------------------------------------
    {
        core::PortendOptions o = full;
        o.detector = core::DetectorKind::HappensBeforeNoMutex;
        core::DetectionResult nomutex = core::Portend(prog, o).detect();
        o.detector = core::DetectorKind::Lockset;
        core::DetectionResult lockset = core::Portend(prog, o).detect();

        std::set<int> hb_cells = racedCells(r1.detection);
        v.checks.push_back(subsetCheck("hb-subset-nomutex", prog,
                                       hb_cells,
                                       racedCells(nomutex)));
        v.checks.push_back(subsetCheck("hb-subset-lockset", prog,
                                       hb_cells,
                                       racedCells(lockset)));
    }

    // -- Classifier vs. baselines ------------------------------------
    {
        baseline::AdhocDetector adhoc(prog);
        baseline::HeuristicClassifier heuristic(prog);
        baseline::ReplayAnalyzer rra(prog, opts.max_steps);
        for (const core::PortendReport &rep : r1.reports) {
            const race::RaceReport &race = rep.cluster.representative;
            if (adhoc.classify(race) ==
                baseline::AdhocVerdict::SingleOrdering) {
                if (rep.classification.cls ==
                    core::RaceClass::Unclassified) {
                    // Dynamic analysis could not complete (e.g. an
                    // unrelated crash truncated every replay), so
                    // the static claim is unconfirmable, not
                    // contradicted. Record, never flag.
                    v.baseline_counts["adhoc-unconfirmed-unclassified"]
                        += 1;
                } else {
                    bool agrees = rep.classification.cls ==
                                  core::RaceClass::SingleOrdering;
                    check("adhoc-agreement", agrees,
                          "static spin-flag race on " +
                              prog.cellName(race.cell) +
                              " classified as " +
                              core::raceClassName(
                                  rep.classification.cls));
                }
            }
            baseline::HeuristicResult h = heuristic.classify(race);
            if (h.verdict == baseline::HeuristicVerdict::LikelyHarmless &&
                rep.classification.harmful()) {
                // DataCollider-style heuristics are wrong in both
                // directions (§2.1); record, never flag.
                v.baseline_counts["heuristic-false-negative"] += 1;
            }
            if (opts.deep) {
                baseline::ReplayAnalysis ra =
                    rra.analyze(race, r1.detection.trace);
                bool portend_harmless =
                    rep.classification.cls ==
                        core::RaceClass::KWitnessHarmless ||
                    rep.classification.cls ==
                        core::RaceClass::SingleOrdering;
                if (ra.verdict ==
                        baseline::ReplayVerdict::LikelyHarmful &&
                    portend_harmless) {
                    // The paper's headline comparison: RR-Analyzer's
                    // conservatism vs Portend. Expected, recorded.
                    v.baseline_counts
                        ["replay-analyzer-conservative-fp"] += 1;
                }
            }
        }
    }

    if (!opts.deep)
        return v;

    // -- Determinism: same seed, byte-identical everything -----------
    {
        core::PortendResult r2 = core::Portend(prog, full).run();
        bool same_trace =
            r2.detection.trace.serialize() == v.trace_text;
        bool same_report = renderRun(prog, r2) == v.report_text;
        check("determinism", same_trace && same_report,
              same_trace ? "verdict report bytes differ between runs"
                         : "recorded schedule trace differs between "
                           "runs");
    }

    // -- Jobs invariance: --jobs 2 == --jobs 1 -----------------------
    {
        core::PortendOptions o = full;
        o.jobs = 2;
        core::PortendResult rj = core::Portend(prog, o).run();
        check("jobs-invariance", renderRun(prog, rj) == v.report_text,
              "verdict report bytes differ between --jobs 1 and "
              "--jobs 2");
    }

    // -- Schedule-coverage monotonicity ------------------------------
    // Raising the Ma budget, or switching the stage-3 explorer from
    // random to dpor, may only *add* witnessed behaviors: a "spec
    // violated" verdict must never be lost. The explorer guarantees
    // this structurally — dpor runs the random schedules first, with
    // the same seeds and in the same order — so a failure here means
    // the exploration superset contract broke.
    {
        const auto lostViolation =
            [&](const core::PortendResult &lo,
                const core::PortendResult &hi) {
                std::map<std::string, const core::PortendReport *> h;
                for (const core::PortendReport &rep : hi.reports)
                    h[rep.cluster.representative.key()] = &rep;
                std::string bad;
                for (const core::PortendReport &rep : lo.reports) {
                    if (rep.classification.cls !=
                        core::RaceClass::SpecViolated) {
                        continue;
                    }
                    auto it = h.find(rep.cluster.representative.key());
                    if (it == h.end())
                        continue;
                    if (it->second->classification.cls !=
                        core::RaceClass::SpecViolated) {
                        bad += (bad.empty() ? "" : "; ") +
                               std::string("race on ") +
                               prog.cellName(
                                   rep.cluster.representative.cell) +
                               " degraded to " +
                               core::raceClassName(
                                   it->second->classification.cls);
                    }
                }
                return bad;
            };

        // random -> dpor at equal budget.
        core::PortendOptions o = full;
        o.explore = full.explore == explore::ExploreMode::Dpor
                        ? explore::ExploreMode::Random
                        : explore::ExploreMode::Dpor;
        core::PortendResult other = core::Portend(prog, o).run();
        const core::PortendResult &as_random =
            full.explore == explore::ExploreMode::Dpor ? other : r1;
        const core::PortendResult &as_dpor =
            full.explore == explore::ExploreMode::Dpor ? r1 : other;
        const std::string lost_explore =
            lostViolation(as_random, as_dpor);
        check("explore-monotonicity", lost_explore.empty(),
              "random->dpor lost a spec-violated verdict: " +
                  lost_explore);

        // Ma raise in the primary explorer.
        core::PortendOptions wide = full;
        wide.ma = full.ma * 2;
        core::PortendResult rw = core::Portend(prog, wide).run();
        const std::string lost_ma = lostViolation(r1, rw);
        check("ma-monotonicity", lost_ma.empty(),
              "doubling --ma lost a spec-violated verdict: " +
                  lost_ma);
    }

    // -- k-monotonicity ----------------------------------------------
    {
        core::PortendOptions lo = full;
        lo.mp = 1;
        lo.ma = 1;
        lo.multi_path = false;
        lo.multi_schedule = false;
        core::PortendResult rl = core::Portend(prog, lo).run();

        // Match clusters by static race identity.
        std::map<std::string, const core::PortendReport *> high;
        for (const core::PortendReport &rep : r1.reports)
            high[rep.cluster.representative.key()] = &rep;
        std::string viol;
        for (const core::PortendReport &rep : rl.reports) {
            auto it = high.find(rep.cluster.representative.key());
            if (it == high.end())
                continue;
            const core::Classification &clo = rep.classification;
            const core::Classification &chi =
                it->second->classification;
            if (clo.cls == core::RaceClass::SpecViolated &&
                chi.cls != core::RaceClass::SpecViolated) {
                viol += (viol.empty() ? "" : "; ") + std::string(
                    "race on ") +
                    prog.cellName(rep.cluster.representative.cell) +
                    " is spec-violated at k=1 but " +
                    core::raceClassName(chi.cls) +
                    " at the full budget";
            } else if (clo.cls == core::RaceClass::KWitnessHarmless &&
                       chi.cls ==
                           core::RaceClass::KWitnessHarmless &&
                       chi.k < clo.k) {
                viol += (viol.empty() ? "" : "; ") + std::string(
                    "k shrank from ") +
                    std::to_string(clo.k) + " to " +
                    std::to_string(chi.k) + " on " +
                    prog.cellName(rep.cluster.representative.cell);
            }
        }
        check("k-monotonicity", viol.empty(), viol);
    }

    // -- Symbolic-input monotonicity + witness replay ----------------
    // Making declared inputs symbolic may only *upgrade* verdicts:
    // the single-path stage-1 baseline witnesses one concrete
    // (input, schedule) point, and every path the symbolic forker
    // adds is another feasible point, so a decisive stage-1 verdict
    // (spec violated / output differs) can never become harmless.
    // The comparison deliberately uses the stage-1 baseline, not the
    // full legacy run: two full multi-path runs with different
    // symbol sets may truncate different path suffixes at the Mp
    // budget, which reorders — without shrinking — the witnessed
    // set. Any decisive symbolic verdict must also carry evidence
    // that replayEvidence reproduces byte-identically.
    if (!prog.inputs.empty()) {
        core::PortendOptions lo = full;
        lo.mp = 1;
        lo.ma = 1;
        lo.multi_path = false;
        lo.multi_schedule = false;
        core::PortendResult rl = core::Portend(prog, lo).run();

        core::PortendOptions so = full;
        for (const ir::InputDecl &d : prog.inputs)
            so.sym_inputs.push_back(
                rt::SymInputSpec{d.name, false, 0, 0});
        core::PortendResult rs = core::Portend(prog, so).run();

        const auto rank = [](core::RaceClass c) {
            switch (c) {
            case core::RaceClass::SpecViolated:
                return 4;
            case core::RaceClass::OutputDiffers:
                return 3;
            case core::RaceClass::KWitnessHarmless:
                return 2;
            case core::RaceClass::SingleOrdering:
                return 1;
            default:
                return 0;
            }
        };
        std::map<std::string, const core::PortendReport *> sym;
        for (const core::PortendReport &rep : rs.reports)
            sym[rep.cluster.representative.key()] = &rep;
        std::string viol;
        for (const core::PortendReport &rep : rl.reports) {
            if (rank(rep.classification.cls) < 3)
                continue; // only decisive stage-1 verdicts bind
            auto it = sym.find(rep.cluster.representative.key());
            if (it == sym.end())
                continue;
            if (rank(it->second->classification.cls) <
                rank(rep.classification.cls)) {
                viol += (viol.empty() ? "" : "; ") +
                        std::string("race on ") +
                        prog.cellName(
                            rep.cluster.representative.cell) +
                        " downgraded from " +
                        core::raceClassName(rep.classification.cls) +
                        " to " +
                        core::raceClassName(
                            it->second->classification.cls) +
                        " under symbolic inputs";
            }
        }
        check("sym-monotonicity", viol.empty(), viol);

        for (const core::PortendReport &rep : rs.reports) {
            for (const core::WitnessInput &w :
                 rep.classification.evidence_witness) {
                v.witness_text +=
                    (v.witness_text.empty() ? "" : " ") +
                    prog.cellName(rep.cluster.representative.cell) +
                    ":" + w.name + "=" + std::to_string(w.value);
            }
        }

        core::RaceAnalyzer analyzer(prog, so);
        const auto renderReplay =
            [](const core::RaceAnalyzer::EvidenceReplay &r) {
                std::string s = rt::runOutcomeName(r.outcome);
                s += "|" + r.detail + "|";
                for (const rt::OutputRecord &rec : r.output.records)
                    s += rec.toString() + "\n";
                return s;
            };
        std::string mismatch;
        for (const core::PortendReport &rep : rs.reports) {
            if (rank(rep.classification.cls) < 3)
                continue;
            core::RaceAnalyzer::EvidenceReplay a =
                analyzer.replayEvidence(rep.cluster.representative,
                                        rs.detection.trace,
                                        rep.classification);
            core::RaceAnalyzer::EvidenceReplay b =
                analyzer.replayEvidence(rep.cluster.representative,
                                        rs.detection.trace,
                                        rep.classification);
            if (renderReplay(a) != renderReplay(b)) {
                mismatch += (mismatch.empty() ? "" : "; ") +
                            std::string("replay of ") +
                            prog.cellName(
                                rep.cluster.representative.cell) +
                            " is not deterministic";
            }
        }
        check("witness-replay", mismatch.empty(), mismatch);
    }

    return v;
}

// -- Verdict cache payload (`portend-fuzz-verdict-v1`) ---------------
//
// Length-prefixed blocks: `tag <len>\n<len raw bytes>\n` for every
// string field (trace/report text embed newlines, so line-based
// formats cannot carry them), `tag <int>\n` for counters. Field order
// is fixed; the reader consumes exactly that order and rejects
// anything else.

namespace {

constexpr const char *kVerdictMagic = "portend-fuzz-verdict-v1";

void
putNum(std::string &out, const char *tag, long long v)
{
    out += tag;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
}

void
putBlock(std::string &out, const char *tag, const std::string &bytes)
{
    putNum(out, tag, static_cast<long long>(bytes.size()));
    out += bytes;
    out += '\n';
}

/** Strict non-negative-leading-digits integer parse (no stoll: a
 *  malformed payload must yield nullopt, never a throw). */
bool
parseNum(const std::string &s, long long *out)
{
    std::size_t i = 0;
    bool neg = false;
    if (!s.empty() && s[0] == '-') {
        neg = true;
        i = 1;
    }
    if (i >= s.size())
        return false;
    long long v = 0;
    for (; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9')
            return false;
        v = v * 10 + (s[i] - '0');
    }
    *out = neg ? -v : v;
    return true;
}

/** Sequential field reader over one serialized verdict. */
struct VerdictReader
{
    explicit VerdictReader(const std::string &text) : text(text) {}

    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    bool fail(const std::string &what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    bool line(std::string *out)
    {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return fail("truncated: missing newline");
        out->assign(text, pos, nl - pos);
        pos = nl + 1;
        return true;
    }

    bool num(const char *tag, long long *out)
    {
        std::string l;
        if (!line(&l))
            return false;
        const std::string prefix = std::string(tag) + " ";
        if (l.compare(0, prefix.size(), prefix) != 0)
            return fail(std::string("expected '") + tag + "' field");
        if (!parseNum(l.substr(prefix.size()), out))
            return fail(std::string("bad '") + tag + "' number");
        return true;
    }

    bool block(const char *tag, std::string *out)
    {
        long long n = 0;
        if (!num(tag, &n))
            return false;
        if (n < 0 || pos + static_cast<std::size_t>(n) + 1 > text.size())
            return fail(std::string("'") + tag +
                        "' block overruns payload");
        if (text[pos + static_cast<std::size_t>(n)] != '\n')
            return fail(std::string("'") + tag +
                        "' block not newline-terminated");
        out->assign(text, pos, static_cast<std::size_t>(n));
        pos += static_cast<std::size_t>(n) + 1;
        return true;
    }
};

} // namespace

std::string
serializeVerdict(const OracleVerdict &v)
{
    std::string out;
    out += kVerdictMagic;
    out += '\n';
    putBlock(out, "outcome", v.outcome);
    putNum(out, "distinct_races", v.distinct_races);
    putNum(out, "dynamic_races", v.dynamic_races);
    putNum(out, "class_counts",
           static_cast<long long>(v.class_counts.size()));
    for (const auto &[cls, n] : v.class_counts) {
        putBlock(out, "class", cls);
        putNum(out, "count", n);
    }
    putNum(out, "baseline_counts",
           static_cast<long long>(v.baseline_counts.size()));
    for (const auto &[name, n] : v.baseline_counts) {
        putBlock(out, "baseline", name);
        putNum(out, "count", n);
    }
    putNum(out, "checks", static_cast<long long>(v.checks.size()));
    for (const CheckResult &c : v.checks) {
        putBlock(out, "check", c.name);
        putNum(out, "ok", c.ok ? 1 : 0);
        putBlock(out, "detail", c.detail);
    }
    putBlock(out, "trace_text", v.trace_text);
    putBlock(out, "report_text", v.report_text);
    putBlock(out, "witness_text", v.witness_text);
    return out;
}

std::optional<OracleVerdict>
deserializeVerdict(const std::string &text, std::string *error)
{
    VerdictReader r(text);
    const auto bail = [&]() -> std::optional<OracleVerdict> {
        if (error)
            *error = r.err.empty() ? "malformed verdict payload"
                                   : r.err;
        return std::nullopt;
    };

    std::string magic;
    if (!r.line(&magic) || magic != kVerdictMagic) {
        r.fail("bad magic (want portend-fuzz-verdict-v1)");
        return bail();
    }
    OracleVerdict v;
    long long n = 0;
    if (!r.block("outcome", &v.outcome))
        return bail();
    if (!r.num("distinct_races", &n))
        return bail();
    v.distinct_races = static_cast<int>(n);
    if (!r.num("dynamic_races", &n))
        return bail();
    v.dynamic_races = static_cast<int>(n);

    if (!r.num("class_counts", &n) || n < 0)
        return bail();
    for (long long i = 0; i < n; ++i) {
        std::string cls;
        long long count = 0;
        if (!r.block("class", &cls) || !r.num("count", &count))
            return bail();
        v.class_counts[cls] = static_cast<int>(count);
    }
    if (!r.num("baseline_counts", &n) || n < 0)
        return bail();
    for (long long i = 0; i < n; ++i) {
        std::string name;
        long long count = 0;
        if (!r.block("baseline", &name) || !r.num("count", &count))
            return bail();
        v.baseline_counts[name] = static_cast<int>(count);
    }
    if (!r.num("checks", &n) || n < 0)
        return bail();
    for (long long i = 0; i < n; ++i) {
        CheckResult c;
        long long ok = 0;
        if (!r.block("check", &c.name) || !r.num("ok", &ok) ||
            !r.block("detail", &c.detail))
            return bail();
        c.ok = ok != 0;
        v.checks.push_back(std::move(c));
    }
    if (!r.block("trace_text", &v.trace_text))
        return bail();
    if (!r.block("report_text", &v.report_text))
        return bail();
    if (!r.block("witness_text", &v.witness_text))
        return bail();
    if (r.pos != text.size()) {
        r.fail("trailing bytes after witness_text");
        return bail();
    }
    return v;
}

} // namespace portend::fuzz
