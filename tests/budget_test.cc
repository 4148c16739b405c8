/**
 * @file
 * The step-budget contract and the interpreter's cycle cut.
 *
 *  - PortendOptions::max_steps is absolute: no interpreter run of an
 *    analysis goes past it, including the alternate of a primary
 *    that crashed of an unrelated bug (measured by the
 *    interp.run_steps histogram at a budget of 2^14 - 1, where a
 *    bucket boundary sits exactly on the budget).
 *  - A run cut at a proven cycle ends in exactly the state the full
 *    budget reaches: every VmState field, counters included, and the
 *    history a recording policy keeps.
 *  - Cycle detection confirms hash matches word for word, so a hash
 *    collision never ends a run.
 *  - Verdicts, evidence, and ledgers are byte-identical with the cut
 *    on and off, over the spin programs here and every corpus/seed
 *    reproducer.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/oracle.h"
#include "ir/builder.h"
#include "ir/serialize.h"
#include "portend/portend.h"
#include "portend/render.h"
#include "rt/cycle.h"
#include "rt/interpreter.h"
#include "rt/policy.h"
#include "support/observe.h"
#include "workloads/registry.h"

namespace portend::core {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

/** Runs everything in its scope to the full budget. */
struct CycleTestOff
{
    CycleTestOff() { rt::setCycleTestEnabled(false); }
    ~CycleTestOff() { rt::setCycleTestEnabled(true); }
};

/** A process collector installed for one scope. */
struct Collect
{
    obs::Collector col;
    Collect() { obs::setCollector(&col); }
    ~Collect() { obs::setCollector(nullptr); }

    obs::MetricsShard
    shard() const
    {
        obs::MetricsShard s;
        col.drainInto(s);
        return s;
    }
};

/** Forwards to a policy but exposes no cycle key: the run goes to
 *  its full budget. */
class Unkeyed : public rt::SchedulePolicy
{
  public:
    explicit Unkeyed(rt::SchedulePolicy *inner) : inner(inner) {}

    rt::ThreadId
    pick(const rt::VmState &state,
         const std::vector<rt::ThreadId> &runnable) override
    {
        return inner->pick(state, runnable);
    }

    void onEvent(const rt::Event &ev) override { inner->onEvent(ev); }

  private:
    rt::SchedulePolicy *inner;
};

/**
 * A writer publishes `x` and then a `ready` flag a reader spins on
 * before reading `x`. Holding the writer before its `x` write (the
 * alternate ordering of the `x` race) leaves the reader spinning
 * forever: busy-wait ad-hoc synchronization. With @p crash the
 * writer then dies of an out-of-bounds store whose index comes from
 * an unrelated global, so stage 1 takes the unrelated-crash
 * fallback; otherwise it runs a register-only loop of @p tail
 * iterations, which makes the primary long.
 */
ir::Program
spinWaiter(bool crash, int tail)
{
    ir::ProgramBuilder pb(crash ? "spin_crash" : "spin_tail");
    ir::GlobalId x = pb.global("x");
    ir::GlobalId ready = pb.global("ready");
    ir::GlobalId junk = pb.global("junk", 1, {7});
    ir::GlobalId arr = pb.global("arr", 2);
    ir::GlobalId priv = pb.global("priv");

    auto &w = pb.function("writer", 1);
    w.to(w.block("e"));
    w.store(x, I(0), I(1));
    w.store(ready, I(0), I(1));
    if (crash) {
        for (int i = 0; i < 20; ++i)
            w.store(priv, I(0), I(i));
        ir::Reg j = w.load(junk);
        w.store(arr, R(j), I(0));
        w.retVoid();
    } else {
        ir::BlockId loop = w.block("loop");
        ir::BlockId done = w.block("done");
        ir::Reg i = w.iconst(0);
        w.jmp(loop);
        w.to(loop);
        w.binInto(i, K::Add, R(i), I(1));
        w.br(R(w.bin(K::Slt, R(i), I(tail))), loop, done);
        w.to(done);
        w.retVoid();
    }

    auto &r = pb.function("reader", 1);
    ir::BlockId spin = r.block("spin");
    ir::BlockId go = r.block("go");
    r.to(r.block("e"));
    r.jmp(spin);
    r.to(spin);
    r.br(R(r.bin(K::Eq, R(r.load(ready)), I(0))), spin, go);
    r.to(go);
    r.output("x", R(r.load(x)));
    r.retVoid();

    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    ir::Reg t1 = m.threadCreate("writer", I(0));
    ir::Reg t2 = m.threadCreate("reader", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/** Two threads copying a cell back and forth forever. */
ir::Program
pingPong()
{
    ir::ProgramBuilder pb("ping_pong");
    ir::GlobalId a = pb.global("a", 1, {1});
    ir::GlobalId b = pb.global("b");
    for (int t = 0; t < 2; ++t) {
        auto &f = pb.function(t == 0 ? "ping" : "pong", 1);
        ir::BlockId loop = f.block("loop");
        f.to(f.block("e"));
        f.jmp(loop);
        f.to(loop);
        ir::Reg v = f.load(t == 0 ? a : b);
        f.store(t == 0 ? b : a, I(0), R(f.bin(K::Add, R(v), I(0))));
        f.jmp(loop);
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    ir::Reg t1 = m.threadCreate("ping", I(0));
    ir::Reg t2 = m.threadCreate("pong", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/** Every VmState field a verdict or a later run can read. */
void
expectSameState(const rt::VmState &a, const rt::VmState &b)
{
    ASSERT_EQ(a.mem.size(), b.mem.size());
    for (std::size_t i = 0; i < a.mem.size(); ++i)
        EXPECT_TRUE(a.mem[i].equals(b.mem[i])) << "cell " << i;
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t i = 0; i < a.threads.size(); ++i) {
        const rt::ThreadState &x = a.threads[i];
        const rt::ThreadState &y = b.threads[i];
        EXPECT_EQ(x.status, y.status) << "thread " << i;
        EXPECT_EQ(x.steps, y.steps) << "thread " << i;
        EXPECT_EQ(x.last_step, y.last_step) << "thread " << i;
        EXPECT_EQ(x.recent_reads, y.recent_reads) << "thread " << i;
        ASSERT_EQ(x.stack->size(), y.stack->size());
        for (std::size_t f = 0; f < x.stack->size(); ++f)
            EXPECT_EQ((*x.stack)[f].ip, (*y.stack)[f].ip);
        ASSERT_EQ(x.regs->size(), y.regs->size());
        for (std::size_t r = 0; r < x.regs->size(); ++r)
            EXPECT_TRUE((*x.regs)[r].equals((*y.regs)[r]));
    }
    EXPECT_EQ(*a.access_counts, *b.access_counts);
    EXPECT_EQ(a.global_step, b.global_step);
    EXPECT_EQ(a.stats.steps, b.stats.steps);
    EXPECT_EQ(a.stats.preemption_points, b.stats.preemption_points);
    EXPECT_EQ(a.current, b.current);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.outcome_tid, b.outcome_tid);
    EXPECT_EQ(a.outcome_pc, b.outcome_pc);
    EXPECT_EQ(a.outcome_detail, b.outcome_detail);
}

rt::ExecOptions
spinOptions()
{
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.max_steps = 20000;
    eo.cycle_test_from = 0;
    return eo;
}

// -- Detector ---------------------------------------------------------

TEST(CycleDetectorTest, FindsTheCycleBehindAPreamble)
{
    rt::CycleDetector d;
    // 0, 1, ..., 9, then 10, 11, 12 repeating: the first match lands
    // inside the cycle, on a key equal to one a multiple of 3 back.
    std::vector<std::uint64_t> seen;
    rt::CycleDetector::Probe p = rt::CycleDetector::Probe::Miss;
    while (p != rt::CycleDetector::Probe::Match) {
        const std::uint64_t i = seen.size();
        seen.push_back(i < 10 ? i : 10 + (i - 10) % 3);
        p = d.probe({seen.back()});
        ASSERT_LT(seen.size(), 100u);
    }
    EXPECT_GE(seen.back(), 10u);
}

TEST(CycleDetectorTest, HashCollisionsNeverMatch)
{
    // Every key hashes alike: only word-for-word equality may match.
    rt::CycleDetector d(
        [](const rt::CycleKey &) -> std::uint64_t { return 42; });
    for (std::uint64_t i = 0; i < 5000; ++i)
        ASSERT_NE(d.probe({i, i * 3}), rt::CycleDetector::Probe::Match)
            << "distinct key " << i << " reported as a cycle";
    // A repeating key still matches once the reference catches up
    // (within the current power-of-two window).
    rt::CycleDetector::Probe p = rt::CycleDetector::Probe::Miss;
    for (int i = 0; i < 20000 && p != rt::CycleDetector::Probe::Match;
         ++i)
        p = d.probe({7, 21});
    EXPECT_EQ(p, rt::CycleDetector::Probe::Match);
}

// -- Interpreter ------------------------------------------------------

TEST(CycleCutTest, CutRunEndsInTheFullRunsState)
{
    const ir::Program p = pingPong();
    rt::RotatePolicy rotate;
    Unkeyed unkeyed(&rotate);

    rt::Interpreter full(p, spinOptions());
    full.setPolicy(&unkeyed);
    obs::MetricsShard fm;
    {
        Collect c;
        ASSERT_EQ(full.run(), rt::RunOutcome::TimedOut);
        fm = c.shard();
    }
    rt::Interpreter cut(p, spinOptions());
    cut.setPolicy(&rotate);
    obs::MetricsShard cm;
    {
        Collect c;
        ASSERT_EQ(cut.run(), rt::RunOutcome::TimedOut);
        cm = c.shard();
    }
    expectSameState(cut.state(), full.state());

    using obs::Counter;
    EXPECT_EQ(fm.counter(Counter::InterpCycleCuts), 0u);
    EXPECT_EQ(cm.counter(Counter::InterpCycleCuts), 1u);
    EXPECT_EQ(cm.counter(Counter::InterpTimeouts), 1u);
    EXPECT_EQ(cm.counter(Counter::InterpTimeoutSteps),
              fm.counter(Counter::InterpTimeoutSteps));
    EXPECT_EQ(fm.counter(Counter::InterpSteps), 20000u);
    EXPECT_LT(cm.counter(Counter::InterpSteps) * 10,
              fm.counter(Counter::InterpSteps));
}

TEST(CycleCutTest, GuidedHistoryIsReplicated)
{
    const ir::Program p = pingPong();
    const std::vector<rt::ThreadId> prefix = {0, 1, 1, 2, 1, 2, 2};
    rt::RotatePolicy rotate;
    Unkeyed unkeyed(&rotate);
    rt::GuidedPolicy guided_full(prefix, &unkeyed);
    rt::GuidedPolicy guided_cut(prefix, &rotate);

    rt::Interpreter full(p, spinOptions());
    full.setPolicy(&guided_full);
    full.run();
    Collect cut_obs;
    rt::Interpreter cut(p, spinOptions());
    cut.setPolicy(&guided_cut);
    cut.run();
    ASSERT_EQ(cut_obs.shard().counter(obs::Counter::InterpCycleCuts),
              1u);

    expectSameState(cut.state(), full.state());
    const rt::ScheduleObservation &a = guided_cut.observation();
    const rt::ScheduleObservation &b = guided_full.observation();
    EXPECT_EQ(a.picks, b.picks);
    EXPECT_EQ(a.enabled, b.enabled);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    for (std::size_t i = 0; i < a.accesses.size(); ++i) {
        EXPECT_EQ(a.accesses[i].tid, b.accesses[i].tid) << i;
        EXPECT_EQ(a.accesses[i].site, b.accesses[i].site) << i;
        EXPECT_EQ(a.accesses[i].write, b.accesses[i].write) << i;
        EXPECT_EQ(a.accesses[i].pick, b.accesses[i].pick) << i;
    }
}

/** A sink that keeps no key: its events must all be delivered. */
struct CountingSink : rt::EventSink
{
    std::uint64_t events = 0;
    void onEvent(const rt::Event &) override { events += 1; }
};

TEST(CycleCutTest, UnkeyedSinkOrRandomPolicyOptsOut)
{
    const ir::Program p = pingPong();
    rt::RotatePolicy rotate;
    rt::RandomPolicy random;
    Collect obs;

    CountingSink sink;
    rt::Interpreter with_sink(p, spinOptions());
    with_sink.setPolicy(&rotate);
    with_sink.addSink(&sink);
    EXPECT_EQ(with_sink.run(), rt::RunOutcome::TimedOut);

    rt::Interpreter sampled(p, spinOptions());
    sampled.setPolicy(&random);
    EXPECT_EQ(sampled.run(), rt::RunOutcome::TimedOut);

    const obs::MetricsShard m = obs.shard();
    EXPECT_EQ(m.counter(obs::Counter::InterpCycleCuts), 0u);
    EXPECT_EQ(m.counter(obs::Counter::InterpSteps), 40000u);
}

TEST(CycleCutTest, NothingIsTestedBeforeTheArmingStep)
{
    const ir::Program p = pingPong();
    rt::RotatePolicy rotate;
    rt::ExecOptions eo = spinOptions();
    eo.cycle_test_from = eo.max_steps;
    Collect obs;
    rt::Interpreter interp(p, eo);
    interp.setPolicy(&rotate);
    EXPECT_EQ(interp.run(), rt::RunOutcome::TimedOut);
    EXPECT_EQ(obs.shard().counter(obs::Counter::InterpCycleCuts), 0u);
}

TEST(CycleCutTest, RunWithoutAPolicyReachesTheCycleTest)
{
    // With no policy installed the scheduler is FIFO, which keeps a
    // spinning thread running; an armed cycle test must still see the
    // spin's decision points and cut it.
    for (const char *name : {"ocean", "fmm", "memcached"}) {
        SCOPED_TRACE(name);
        const ir::Program p = workloads::buildWorkload(name).program;
        rt::ExecOptions eo;
        eo.preempt_on_memory = true;
        eo.cycle_test_from = 0;

        rt::Interpreter full(p, eo);
        {
            CycleTestOff off;
            ASSERT_EQ(full.run(), rt::RunOutcome::TimedOut);
        }
        Collect obs;
        rt::Interpreter cut(p, eo);
        ASSERT_EQ(cut.run(), rt::RunOutcome::TimedOut);
        EXPECT_EQ(cut.state().global_step, eo.max_steps);
        expectSameState(cut.state(), full.state());
        const obs::MetricsShard m = obs.shard();
        EXPECT_EQ(m.counter(obs::Counter::InterpCycleCuts), 1u);
        EXPECT_LT(m.counter(obs::Counter::InterpSteps) * 100,
                  eo.max_steps);
    }
}

// -- Analysis ---------------------------------------------------------

/** 2^14 - 1: a run fits the budget iff its step count lands in a
 *  histogram bucket no higher than bit_width(budget). */
constexpr std::uint64_t kBudget = (1u << 14) - 1;

TEST(BudgetContractTest, NoRunExceedsMaxSteps)
{
    for (bool crash : {false, true}) {
        const ir::Program p = spinWaiter(crash, 2000);
        PortendOptions o;
        o.jobs = 1;
        o.max_steps = kBudget;
        Collect obs;
        PortendResult res = Portend(p, o).run();
        const obs::MetricsShard m = obs.shard();
        const std::string what = p.name;

        const std::size_t top =
            static_cast<std::size_t>(std::bit_width(kBudget));
        for (std::size_t b = top + 1; b < obs::kHistBuckets; ++b)
            EXPECT_EQ(m.histBucket(obs::Hist::InterpRunSteps, b), 0u)
                << what << ": a run took >= 2^" << (b - 1) << " steps";

        using obs::Counter;
        const std::uint64_t timeouts = m.counter(Counter::InterpTimeouts);
        EXPECT_GT(timeouts, 0u) << what;
        EXPECT_GT(m.counter(Counter::InterpCycleCuts), 0u) << what;
        EXPECT_LE(m.counter(Counter::InterpCycleCuts), timeouts) << what;
        EXPECT_LE(m.counter(Counter::InterpTimeoutSteps),
                  timeouts * kBudget)
            << what;

        bool busy_wait = false;
        for (const PortendReport &r : res.reports)
            busy_wait |= r.classification.cls ==
                             RaceClass::SingleOrdering &&
                         r.classification.detail.find("busy-wait") !=
                             std::string::npos;
        EXPECT_TRUE(busy_wait) << what;
    }
}

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

TEST(CycleCutDifferentialTest, SpinProgramsClassifyIdentically)
{
    for (bool crash : {false, true}) {
        const ir::Program p = spinWaiter(crash, 200);
        PortendOptions o;
        o.jobs = 1;
        o.max_steps = 50000;
        Collect obs;
        const std::string cut = pipelineBytes(p, o);
        EXPECT_GT(obs.shard().counter(obs::Counter::InterpCycleCuts), 0u);
        CycleTestOff off;
        EXPECT_EQ(cut, pipelineBytes(p, o)) << p.name;
    }
}

TEST(CycleCutDifferentialTest, CorpusSeedVerdictsAreIdentical)
{
    const std::string dir = PORTEND_CORPUS_SEED_DIR;
    const std::vector<std::string> names = fuzz::listEntries(dir);
    ASSERT_FALSE(names.empty()) << dir;
    Collect obs;
    for (const std::string &name : names) {
        std::string err;
        std::optional<fuzz::CorpusEntry> e =
            fuzz::loadEntry(dir + "/" + name, &err);
        ASSERT_TRUE(e.has_value()) << name << ": " << err;
        std::optional<ir::Program> p =
            ir::deserializeProgram(e->program_text, &err);
        ASSERT_TRUE(p.has_value()) << name << ": " << err;
        fuzz::OracleOptions o;
        o.detection_seed = e->detection_seed;
        const std::string cut =
            fuzz::serializeVerdict(fuzz::runOracle(*p, o));
        CycleTestOff off;
        EXPECT_EQ(cut, fuzz::serializeVerdict(fuzz::runOracle(*p, o)))
            << name;
    }
    // The differential is not vacuous: the corpus has timed-out
    // alternates, and the cut ended some of them early.
    const obs::MetricsShard m = obs.shard();
    EXPECT_GT(m.counter(obs::Counter::InterpTimeouts), 0u);
    EXPECT_GT(m.counter(obs::Counter::InterpCycleCuts), 0u);
}

} // namespace
} // namespace portend::core
