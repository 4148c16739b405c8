/** @file Exhaustive cross-checks for the schedule explorer.
 *
 * For micro programs small enough to enumerate *every* interleaving,
 * the dpor explorer's pruned schedule set must cover every
 * Mazurkiewicz-trace equivalence class, count no class twice, and
 * execute fewer runs than brute-force enumeration. The enumeration
 * itself brute-forces the scheduler decision tree with
 * rt::GuidedPolicy, so ground truth and explorer share one
 * signature function and one execution engine.
 *
 * The exhaustive suites are deliberately exponential; they carry the
 * ctest `slow` label (excluded from the TSan CI job).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "explore/explorer.h"
#include "ir/builder.h"
#include "portend/portend.h"
#include "portend/render.h"
#include "rt/interpreter.h"
#include "rt/policy.h"
#include "support/hash.h"
#include "support/observe.h"
#include "workloads/registry.h"

namespace portend {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

/** Two symmetric writers touching two shared cells in opposite
 *  order: conflicting pairs on both cells, no synchronization. */
ir::Program
crossWriters()
{
    ir::ProgramBuilder pb("cross");
    ir::GlobalId x = pb.global("x");
    ir::GlobalId y = pb.global("y");
    auto &a = pb.function("wa", 1);
    a.to(a.block("e"));
    a.store(x, I(0), I(1));
    a.store(y, I(0), I(2));
    a.retVoid();
    auto &b = pb.function("wb", 1);
    b.to(b.block("e"));
    b.store(y, I(0), I(3));
    b.store(x, I(0), I(4));
    b.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    ir::Reg t1 = m.threadCreate("wa", I(0));
    ir::Reg t2 = m.threadCreate("wb", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/** Three writers with staggered private preambles appending to one
 *  shared cell: many classes, heavily skewed random sampling. */
ir::Program
staggeredWriters()
{
    ir::ProgramBuilder pb("staggered");
    ir::GlobalId log = pb.global("log");
    std::vector<std::string> names;
    for (int w = 0; w < 3; ++w) {
        std::string name = "w" + std::to_string(w);
        names.push_back(name);
        ir::GlobalId priv = pb.global(name + "_priv");
        auto &f = pb.function(name, 1);
        f.to(f.block("e"));
        for (int i = 0; i < w; ++i)
            f.store(priv, I(0), I(i)); // private stagger
        ir::Reg lv = f.load(log);
        f.store(log, I(0), R(f.bin(K::Add, R(lv), I(1 << w))));
        f.retVoid();
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    std::vector<ir::Reg> tids;
    for (const auto &n : names)
        tids.push_back(m.threadCreate(n, I(0)));
    for (ir::Reg t : tids)
        m.threadJoin(R(t));
    m.halt();
    return pb.build();
}

/** Two lock-protected writers: the backtrack target is blocked at
 *  the flip point, exercising the persistent-set widening rule. */
ir::Program
lockedWriters()
{
    ir::ProgramBuilder pb("locked");
    ir::GlobalId g = pb.global("g");
    ir::SyncId mx = pb.mutex("m");
    for (int w = 0; w < 2; ++w) {
        auto &f = pb.function("w" + std::to_string(w), 1);
        f.to(f.block("e"));
        f.lock(mx);
        ir::Reg v = f.load(g);
        f.store(g, I(0), R(f.bin(K::Add, R(v), I(w + 1))));
        f.unlock(mx);
        f.retVoid();
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    ir::Reg t1 = m.threadCreate("w0", I(0));
    ir::Reg t2 = m.threadCreate("w1", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/** Run the whole program under a guided prefix + rotate fallback
 *  (the same completion the analyzer's guided alternates use),
 *  expecting a clean exit when @p expect_exit is set. */
rt::ScheduleObservation
runGuided(const ir::Program &p,
          const std::vector<rt::ThreadId> &prefix,
          bool expect_exit = true)
{
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.max_steps = 100000;
    rt::Interpreter interp(p, eo);
    rt::RotatePolicy rotate;
    rt::GuidedPolicy pol(prefix, &rotate);
    interp.setPolicy(&pol);
    rt::RunOutcome oc = interp.run();
    if (expect_exit) {
        EXPECT_EQ(oc, rt::RunOutcome::Exited);
    }
    return pol.takeObservation();
}

/**
 * Brute-force every interleaving: DFS over the scheduler decision
 * tree, branching at every decision point over every enabled
 * thread. Returns the number of complete schedules executed.
 */
int
enumerateAll(const ir::Program &p, std::set<std::string> &classes,
             std::vector<rt::ThreadId> prefix = {})
{
    rt::ScheduleObservation obs = runGuided(p, prefix);
    classes.insert(explore::signatureHash(obs));
    int runs = 1;
    for (std::size_t i = prefix.size(); i < obs.picks.size(); ++i) {
        for (rt::ThreadId t : obs.enabled[i]) {
            if (t == obs.picks[i])
                continue;
            std::vector<rt::ThreadId> child(obs.picks.begin(),
                                            obs.picks.begin() +
                                                static_cast<long>(i));
            child.push_back(t);
            runs += enumerateAll(p, classes, child);
        }
    }
    return runs;
}

/** Drive a pure-systematic (no random phase) dpor exploration of
 *  the whole program; returns runs executed. */
int
exploreAll(const ir::Program &p, explore::ScheduleExplorer &ex)
{
    int runs = 0;
    while (std::optional<explore::PostSpec> spec = ex.next()) {
        EXPECT_EQ(spec->kind, explore::PostSpec::Kind::Guided);
        ex.record(runGuided(p, spec->prefix));
        runs += 1;
    }
    return runs;
}

explore::ExplorerOptions
exhaustiveOptions()
{
    explore::ExplorerOptions xo;
    xo.budget = 1 << 20;       // never the stopping condition
    xo.max_runs = 1 << 20;
    xo.preemption_bound = 64;  // effectively unbounded here
    xo.random_first = false;   // measure pure systematic coverage
    return xo;
}

class ExploreExhaustiveTest : public ::testing::Test
{
  protected:
    void
    crossCheck(const ir::Program &p)
    {
        std::set<std::string> truth;
        int all_runs = enumerateAll(p, truth);
        ASSERT_GT(truth.size(), 1u) << p.name;

        explore::ScheduleExplorer ex(exhaustiveOptions());
        int runs = exploreAll(p, ex);

        // Coverage: every Mazurkiewicz class, no phantom classes
        // (the explorer executes real schedules, so its signatures
        // are a subset by construction), no duplicate counting.
        EXPECT_EQ(ex.signatures(), truth) << p.name;
        EXPECT_EQ(ex.distinct(),
                  static_cast<int>(ex.signatures().size()))
            << p.name;
        EXPECT_TRUE(ex.exhausted()) << p.name;

        // Pruning: strictly fewer executions than brute force.
        EXPECT_LT(runs, all_runs) << p.name;
        EXPECT_EQ(runs, ex.runs()) << p.name;
    }
};

TEST_F(ExploreExhaustiveTest, CrossWritersCoverAllClasses)
{
    crossCheck(crossWriters());
}

TEST_F(ExploreExhaustiveTest, StaggeredWritersCoverAllClasses)
{
    crossCheck(staggeredWriters());
}

TEST_F(ExploreExhaustiveTest, LockedWritersCoverAllClasses)
{
    crossCheck(lockedWriters());
}

// The signature must identify Mazurkiewicz classes: schedules that
// only reorder independent accesses collapse, schedules that
// reorder conflicting accesses do not.
TEST(SignatureTest, IndependentReorderingsCollapse)
{
    rt::ScheduleObservation a;
    // t0 writes site 0, t1 writes site 1 — independent.
    a.accesses = {{0, 0, true, 0}, {1, 1, true, 1}};
    rt::ScheduleObservation b;
    b.accesses = {{1, 1, true, 0}, {0, 0, true, 1}};
    EXPECT_EQ(explore::canonicalSignature(a),
              explore::canonicalSignature(b));
}

TEST(SignatureTest, ConflictingReorderingsStayDistinct)
{
    rt::ScheduleObservation a;
    a.accesses = {{0, 7, true, 0}, {1, 7, true, 1}};
    rt::ScheduleObservation b;
    b.accesses = {{1, 7, true, 0}, {0, 7, true, 1}};
    EXPECT_NE(explore::canonicalSignature(a),
              explore::canonicalSignature(b));
}

TEST(SignatureTest, ReadReadPairsAreIndependent)
{
    rt::ScheduleObservation a;
    a.accesses = {{0, 7, false, 0}, {1, 7, false, 1}};
    rt::ScheduleObservation b;
    b.accesses = {{1, 7, false, 0}, {0, 7, false, 1}};
    EXPECT_EQ(explore::canonicalSignature(a),
              explore::canonicalSignature(b));
}

TEST(SignatureTest, ProgramOrderIsDependence)
{
    // Same thread, different sites: order is program order and must
    // not collapse.
    rt::ScheduleObservation a;
    a.accesses = {{0, 1, true, 0}, {0, 2, true, 1}};
    rt::ScheduleObservation b;
    b.accesses = {{0, 2, true, 0}, {0, 1, true, 1}};
    EXPECT_NE(explore::canonicalSignature(a),
              explore::canonicalSignature(b));
}

TEST(SignatureTest, HashIsStable16Hex)
{
    rt::ScheduleObservation a;
    a.accesses = {{0, 1, true, 0}};
    std::string h = explore::signatureHash(a);
    EXPECT_EQ(h.size(), 16u);
    EXPECT_EQ(h.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(h, explore::signatureHash(a));
}

// The random phase comes first, with the legacy seed layout, and
// stopping conditions do not truncate it.
TEST(ExplorerModeTest, DporRunsTheRandomPhaseFirstAndWhole)
{
    explore::ExplorerOptions xo;
    xo.budget = 2;
    xo.seed_base = 48;
    explore::ScheduleExplorer ex(xo);

    rt::ScheduleObservation one;
    one.accesses = {{0, 1, true, 0}};
    rt::ScheduleObservation two;
    two.accesses = {{1, 1, true, 0}};

    std::optional<explore::PostSpec> s1 = ex.next();
    ASSERT_TRUE(s1.has_value());
    EXPECT_EQ(s1->kind, explore::PostSpec::Kind::Random);
    EXPECT_EQ(s1->seed, 49u);
    EXPECT_TRUE(ex.record(one));

    // Distinct budget is already met after the next record, yet the
    // second random seed must still be issued before stopping.
    std::optional<explore::PostSpec> s2 = ex.next();
    ASSERT_TRUE(s2.has_value());
    EXPECT_EQ(s2->kind, explore::PostSpec::Kind::Random);
    EXPECT_EQ(s2->seed, 50u);
    EXPECT_TRUE(ex.record(two));
    EXPECT_EQ(ex.distinct(), 2);

    EXPECT_FALSE(ex.next().has_value());
}

// Duplicate classes are recognized and not double counted.
TEST(ExplorerModeTest, DuplicateSignaturesAreNotDistinct)
{
    explore::ExplorerOptions xo;
    xo.budget = 2;
    explore::ScheduleExplorer ex(xo);
    rt::ScheduleObservation obs;
    obs.accesses = {{0, 1, true, 0}};
    ASSERT_TRUE(ex.next().has_value());
    EXPECT_TRUE(ex.record(obs));
    ASSERT_TRUE(ex.next().has_value());
    EXPECT_FALSE(ex.record(obs));
    EXPECT_EQ(ex.distinct(), 1);
}

} // namespace
} // namespace portend

namespace portend::core {
namespace {

using ir::I;
using ir::R;

/** A benign race anchoring stage 3 on a program whose post-race
 *  schedule space the explorers then have to cover. */
ir::Program
racyStaggered()
{
    ir::ProgramBuilder pb("racy_staggered");
    ir::GlobalId sync = pb.global("sync_cell");
    ir::GlobalId log = pb.global("log_cell");
    using KK = sym::ExprKind;
    std::vector<std::string> names;
    for (int w = 0; w < 3; ++w) {
        std::string name = "w" + std::to_string(w);
        names.push_back(name);
        ir::GlobalId priv = pb.global(name + "_priv");
        auto &f = pb.function(name, 1);
        f.to(f.block("e"));
        f.store(sync, I(0), I(1)); // the anchoring benign race
        for (int i = 0; i < w * 3; ++i) {
            ir::Reg v = f.load(priv);
            f.store(priv, I(0), R(f.bin(KK::Add, R(v), I(1))));
        }
        ir::Reg lv = f.load(log);
        f.store(log, I(0),
                R(f.bin(KK::Add, R(f.bin(KK::Mul, R(lv), I(10))),
                        I(w + 1))));
        f.retVoid();
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    std::vector<ir::Reg> tids;
    for (const auto &n : names)
        tids.push_back(m.threadCreate(n, I(0)));
    for (ir::Reg t : tids)
        m.threadJoin(R(t));
    m.outputStr("done");
    m.halt();
    return pb.build();
}

/** 16 lowercase hex digits, the signature-hash spelling. */
std::string
hex16(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Brute-force Foata signature: each level is one past the deepest
 * earlier event it depends on, found by an O(n^2) scan with
 * ScheduleObservation::dependent; levels are then sorted and spelled
 * as explore::canonicalSignature documents. The reference the
 * explorer's own level computation is checked against.
 */
std::string
referenceSignature(const rt::ScheduleObservation &obs)
{
    const auto &ev = obs.accesses;
    std::vector<int> level(ev.size(), 0);
    for (std::size_t i = 0; i < ev.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (rt::ScheduleObservation::dependent(ev[j], ev[i]))
                level[i] = std::max(level[i], level[j] + 1);
        }
    }
    std::vector<std::tuple<int, rt::ThreadId, int, bool>> keys;
    for (std::size_t i = 0; i < ev.size(); ++i)
        keys.emplace_back(level[i], ev[i].tid, ev[i].site, ev[i].write);
    std::sort(keys.begin(), keys.end());
    std::string out;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto &[lv, tid, site, write] = keys[i];
        if (i > 0)
            out += std::get<0>(keys[i - 1]) == lv ? "," : "|";
        out += "t" + std::to_string(tid) + (write ? "w" : "r") +
               std::to_string(site);
    }
    return out;
}

/** The explorer-sequence programs: every registry workload, the
 *  three exhaustive gadgets and racyStaggered. */
std::vector<ir::Program>
sequencePrograms()
{
    std::vector<ir::Program> programs;
    for (const std::string &name : workloads::workloadNames())
        programs.push_back(workloads::buildWorkload(name).program);
    for (ir::Program p : {crossWriters(), staggeredWriters(),
                          lockedWriters(), racyStaggered()})
        programs.push_back(std::move(p));
    return programs;
}

/**
 * Drive one dpor explorer (no random phase, budget 32, default
 * preemption bound) over whole-program guided runs of @p p, handing
 * each observation to @p visit. Returns a digest folding every
 * issued prefix, every record() result and every lastSignature().
 */
std::string
exploreSequence(
    const ir::Program &p,
    const std::function<void(const rt::ScheduleObservation &)> &visit)
{
    explore::ExplorerOptions xo;
    xo.budget = 32;
    xo.random_first = false;
    explore::ScheduleExplorer ex(xo);
    std::uint64_t h = kFnvOffset;
    while (std::optional<explore::PostSpec> spec = ex.next()) {
        h = hashCombine(h, spec->prefix.size());
        for (rt::ThreadId t : spec->prefix)
            h = hashCombine(h, static_cast<std::uint64_t>(t));
        // Registry workloads may crash or time out under a schedule.
        rt::ScheduleObservation obs = runGuided(p, spec->prefix, false);
        visit(obs);
        h = hashCombine(h, ex.record(obs) ? 1 : 0);
        h = fnv1a(ex.lastSignature(), h);
    }
    h = hashCombine(h, static_cast<std::uint64_t>(ex.runs()));
    h = hashCombine(h, static_cast<std::uint64_t>(ex.distinct()));
    return hex16(h);
}

// The explorer is pure bookkeeping, so its issued schedules and the
// signatures it computes are a fixed function of the programs. These
// digests pin that function: a faster explorer must issue the same
// prefixes, in the same order, and reach the same verdict on every
// record().
TEST(ExplorerSequenceTest, IssuedSchedulesAndSignaturesArePinned)
{
    const std::map<std::string, std::string> pinned = {
        {"AVV", "e4938267c4e7e4ee"},
        {"DBM", "13d82c7dcefbe483"},
        {"DCL", "88fa3801109c9c99"},
        {"RW", "f9e376f79f4a5b58"},
        {"bbuf", "5fce7b0a101c6a04"},
        {"cross", "df81ea29ef19c5f8"},
        {"ctrace", "1aae7cc982a2fd5d"},
        {"fmm", "049233c7c47f03f8"},
        {"locked", "b29db43022d3ba74"},
        {"memcached", "a2d629b225ed79e2"},
        {"ocean", "90e24b177a47ba19"},
        {"pbzip2", "273a42fa49dd96e9"},
        {"racy_staggered", "422ec5758cf861f1"},
        {"sqlite", "50bb5d136a99d243"},
        {"staggered", "b136782e43e0c342"},
    };
    std::map<std::string, std::string> got;
    for (const ir::Program &p : sequencePrograms())
        got[p.name] = exploreSequence(p, [](const auto &) {});
    EXPECT_EQ(got, pinned);
}

// Over the same observations, the hash is the FNV-1a of the
// canonical signature, and the signature's Foata levels are the
// brute-force ones.
TEST(SignatureTest, MatchesBruteForceLevelsOnExploredRuns)
{
    int checked = 0;
    for (const ir::Program &p : sequencePrograms()) {
        exploreSequence(p, [&](const rt::ScheduleObservation &obs) {
            const std::string sig = explore::canonicalSignature(obs);
            EXPECT_EQ(sig, referenceSignature(obs)) << p.name;
            EXPECT_EQ(explore::signatureHash(obs), hex16(fnv1a(sig)))
                << p.name;
            checked += 1;
        });
    }
    EXPECT_GT(checked, 0);
}

// The explorer's budget claim: the systematic phase buys distinct
// post-race interleavings the seeded random phase does not, on a
// schedule-rich program. The random phase's fresh count is read off
// the same run's schedule events, as bench_schedule_bench does.
TEST(ExplorePipelineTest, DporBuysMoreDistinctSchedules)
{
    ir::Program p = racyStaggered();
    PortendOptions o;
    o.jobs = 1;
    o.ma = 6;
    std::ostringstream events;
    obs::Progress sink(events);
    obs::setProgress(&sink);
    PortendResult res = Portend(p, o).run();
    obs::setProgress(nullptr);
    ASSERT_FALSE(res.reports.empty());

    int random_fresh = 0;
    std::istringstream lines(events.str());
    for (std::string line; std::getline(lines, line);) {
        if (line.find("\"kind\": \"random\"") != std::string::npos &&
            line.find("\"fresh\": true") != std::string::npos) {
            random_fresh += 1;
        }
    }
    int total = 0;
    for (const PortendReport &r : res.reports) {
        const AnalysisStats &a = r.classification.stats;
        EXPECT_LE(a.distinct_schedules, a.schedules_explored);
        total += a.distinct_schedules;
    }
    EXPECT_GT(random_fresh, 0);
    EXPECT_GT(total, random_fresh);
    EXPECT_EQ(res.metrics.counter(obs::Counter::ClassifyDistinctSchedules),
              static_cast<std::uint64_t>(total));
}

// Explorer evidence replays: a dpor-found decisive verdict carries
// a schedule prefix + signature, and replaying it deterministically
// reproduces the behavior class.
TEST(ExplorePipelineTest, GuidedEvidenceReplays)
{
    ir::Program p = racyStaggered();
    PortendOptions o;
    o.jobs = 1;
    o.ma = 6;
    Portend tool(p, o);
    PortendResult res = tool.run();

    RaceAnalyzer analyzer(p, o);
    int replayed = 0;
    for (const PortendReport &r : res.reports) {
        const Classification &c = r.classification;
        if (c.cls != RaceClass::SpecViolated &&
            c.cls != RaceClass::OutputDiffers) {
            continue;
        }
        RaceAnalyzer::EvidenceReplay er = analyzer.replayEvidence(
            r.cluster.representative, res.detection.trace, c);
        if (c.cls == RaceClass::SpecViolated)
            EXPECT_TRUE(rt::isSpecViolation(er.outcome));
        else
            EXPECT_EQ(er.outcome, rt::RunOutcome::Exited);
        replayed += 1;
    }
    // The program may classify fully harmless; then nothing to
    // replay — still assert the pipeline produced reports.
    EXPECT_FALSE(res.reports.empty());
    (void)replayed;
}

/** Turns the interpreter's cycle cut off for one scope. */
struct CycleTestOff
{
    CycleTestOff() { rt::setCycleTestEnabled(false); }
    ~CycleTestOff() { rt::setCycleTestEnabled(true); }
};

/** Everything a pipeline run prints or exports. */
std::string
pipelineBytes(const ir::Program &p, const PortendOptions &o)
{
    PortendResult res = Portend(p, o).run();
    RenderMode text;
    text.stats = true;
    RenderMode json;
    json.json = true;
    return renderPipelineReport(p.name, p, res, o.mp, o.ma, text) +
           renderPipelineReport(p.name, p, res, o.mp, o.ma, json) +
           obs::metricsJson(res.metrics);
}

// The cycle cut ends a provable spin early in exactly the state the
// full budget reaches, so verdicts, evidence signatures, and ledgers
// match the uncut pipeline byte for byte, on these micro programs and on every registry workload (whose
// busy-wait verdicts time out).
TEST(CycleCutDifferentialTest, VerdictsMatchTheUncutPipeline)
{
    std::vector<std::pair<ir::Program, std::vector<SemanticPredicate>>>
        programs;
    for (ir::Program p : {crossWriters(), staggeredWriters(),
                          lockedWriters(), racyStaggered()})
        programs.emplace_back(std::move(p),
                              std::vector<SemanticPredicate>{});
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        programs.emplace_back(std::move(w.program),
                              w.semantic_predicates);
    }
    obs::Collector col;
    obs::setCollector(&col);
    for (const auto &[prog, preds] : programs) {
        PortendOptions o;
        o.jobs = 1;
        o.semantic_predicates = preds;
        const std::string cut = pipelineBytes(prog, o);
        CycleTestOff off;
        EXPECT_EQ(cut, pipelineBytes(prog, o)) << prog.name;
    }
    obs::setCollector(nullptr);
    obs::MetricsShard m;
    col.drainInto(m);
    EXPECT_GT(m.counter(obs::Counter::InterpTimeouts), 0u);
    EXPECT_GT(m.counter(obs::Counter::InterpCycleCuts), 0u);
}

} // namespace
} // namespace portend::core
