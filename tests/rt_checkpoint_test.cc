/** @file Copy-on-write checkpoint and checkpoint-ladder tests:
 *  fork-then-mutate isolation (writes in a fork never bleed into the
 *  parent or siblings), ladder-resume equivalence (resuming a cached
 *  rung, or adopting the end rung, is byte-identical to replaying
 *  from step 0), and the classify-with-ladder == classify-without
 *  contract, sliced budgets included. The whole suite runs under the
 *  TSan CI job. */

#include <gtest/gtest.h>

#include <vector>

#include "ir/builder.h"
#include "ir/program.h"
#include "portend/portend.h"
#include "replay/checkpoint.h"
#include "replay/replayer.h"
#include "rt/interpreter.h"
#include "rt/policy.h"
#include "support/cow.h"
#include "support/observe.h"
#include "workloads/registry.h"

namespace portend {
namespace {

using namespace portend::rt;

// ---------------------------------------------------------------
// Cow<T> primitive.
// ---------------------------------------------------------------

TEST(CowTest, CopiesShareUntilWritten)
{
    Cow<std::vector<int>> a(std::vector<int>{1, 2, 3});
    Cow<std::vector<int>> b = a;
    EXPECT_TRUE(a.sharedWith(b));
    EXPECT_EQ(b.ro(), a.ro());

    b.rw()[1] = 99; // write barrier: b clones, a untouched
    EXPECT_FALSE(a.sharedWith(b));
    EXPECT_EQ(a.ro()[1], 2);
    EXPECT_EQ(b.ro()[1], 99);
}

TEST(CowTest, ReadsNeverUnshare)
{
    Cow<std::vector<int>> a(std::vector<int>{7});
    Cow<std::vector<int>> b = a;
    EXPECT_EQ(b->size(), 1u);
    EXPECT_EQ((*b)[0], 7);
    EXPECT_EQ(b.ro().at(0), 7);
    EXPECT_TRUE(a.sharedWith(b)); // still shared after reads
}

TEST(CowTest, UniqueWriteMutatesInPlace)
{
    Cow<std::vector<int>> a(std::vector<int>{5});
    const int *payload = a.ro().data();
    a.rw()[0] = 6; // sole owner: no clone
    EXPECT_EQ(a.ro().data(), payload);
    EXPECT_EQ(a.ro()[0], 6);
}

// ---------------------------------------------------------------
// MemImage paging.
// ---------------------------------------------------------------

TEST(MemImageTest, ForkThenWriteIsolation)
{
    MemImage a;
    const std::size_t n = MemImage::kPageCells * 2 + 5; // 3 pages
    for (std::size_t i = 0; i < n; ++i)
        a.append(rt::Value::ofConst(static_cast<std::int64_t>(i)));

    MemImage b = a;
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(a.sharesPage(i, b));

    // Writing one cell of b unshares exactly that page.
    const std::size_t hit = MemImage::kPageCells + 3; // page 1
    b.write(hit, rt::Value::ofConst(-1));
    EXPECT_TRUE(a.sharesPage(0, b));
    EXPECT_FALSE(a.sharesPage(hit, b));
    EXPECT_TRUE(a.sharesPage(MemImage::kPageCells * 2, b));

    EXPECT_EQ(a[hit].constValue(), static_cast<std::int64_t>(hit));
    EXPECT_EQ(b[hit].constValue(), -1);
    // Unwritten cells of the unshared page kept their values.
    EXPECT_EQ(b[hit + 1].constValue(),
              static_cast<std::int64_t>(hit + 1));
}

// ---------------------------------------------------------------
// VmState fork isolation through the interpreter.
// ---------------------------------------------------------------

using ir::I;
using ir::R;
using K = sym::ExprKind;

/** Two threads bumping one global; main reads it last. */
ir::Program
counterProgram()
{
    ir::ProgramBuilder pb("cow_counter");
    ir::GlobalId g = pb.global("g");

    auto &w = pb.function("worker", 1);
    w.to(w.block("entry"));
    for (int i = 0; i < 8; ++i)
        w.store(g, I(0), R(w.bin(K::Add, R(w.load(g)), I(1))));
    w.retVoid();

    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("worker", I(0));
    ir::Reg t2 = mn.threadCreate("worker", I(0));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    mn.output("final", R(mn.load(g)));
    mn.halt();
    return pb.build();
}

TEST(VmStateForkTest, ForkThenMutateDoesNotBleedIntoParent)
{
    ir::Program prog = counterProgram();
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    rt::Interpreter interp(prog, eo);

    // Run partway, then checkpoint.
    rt::Interpreter::StopSpec stop;
    stop.after_event = [](const rt::Event &ev) {
        return ev.kind == rt::EventKind::MemWrite;
    };
    interp.run(stop);
    ASSERT_TRUE(interp.stopped());

    const rt::VmState parent = interp.state();
    // An eagerly materialized reference copy of the parent: if COW
    // aliasing ever leaked a write, parent and deep would diverge.
    rt::VmState deep = parent;
    deep.unshareAll();

    // Two siblings forked from the same checkpoint, run to
    // completion under different schedules.
    rt::RotatePolicy rotate;
    rt::Interpreter sib1(prog, eo);
    sib1.setState(parent);
    sib1.setPolicy(&rotate);
    EXPECT_EQ(sib1.run(), rt::RunOutcome::Exited);

    rt::Interpreter sib2(prog, eo);
    sib2.setState(parent);
    EXPECT_EQ(sib2.run(), rt::RunOutcome::Exited); // FIFO default

    // The siblings made progress...
    EXPECT_GT(sib1.state().global_step, parent.global_step);
    EXPECT_GT(sib2.state().global_step, parent.global_step);

    // ...but the parent checkpoint is bit-for-bit what it was.
    ASSERT_EQ(parent.mem.size(), deep.mem.size());
    for (std::size_t i = 0; i < parent.mem.size(); ++i)
        EXPECT_TRUE(parent.mem[i].equals(deep.mem[i])) << "cell " << i;
    ASSERT_EQ(parent.threads.size(), deep.threads.size());
    for (std::size_t t = 0; t < parent.threads.size(); ++t) {
        const auto &pt = parent.threads[t];
        const auto &dt = deep.threads[t];
        EXPECT_EQ(pt.status, dt.status) << "thread " << t;
        ASSERT_EQ(pt.stack->size(), dt.stack->size()) << "thread " << t;
        for (std::size_t f = 0; f < pt.stack->size(); ++f) {
            EXPECT_EQ((*pt.stack)[f].func, (*dt.stack)[f].func);
            EXPECT_EQ((*pt.stack)[f].ip, (*dt.stack)[f].ip);
        }
    }
    EXPECT_EQ(parent.access_counts.ro(), deep.access_counts.ro());
    EXPECT_EQ(parent.global_step, deep.global_step);

    // And the siblings are isolated from each other: both finish
    // with the same deterministic result their own schedule gives,
    // unperturbed by the other's writes.
    ASSERT_EQ(sib1.state().output.size(), 1u);
    ASSERT_EQ(sib2.state().output.size(), 1u);
}

// ---------------------------------------------------------------
// Checkpoint-ladder equivalence.
// ---------------------------------------------------------------

/** Detection result of one registry workload. */
core::DetectionResult
detectOn(const workloads::Workload &w, core::PortendOptions &opts)
{
    opts.semantic_predicates = w.semantic_predicates;
    core::Portend tool(w.program, opts);
    return tool.detect();
}

/** The ladder the scheduler builds for one detection run. */
replay::CheckpointLadder
ladderFor(const workloads::Workload &w, const core::DetectionResult &det,
          const core::PortendOptions &opts)
{
    return replay::CheckpointLadder::build(
        w.program, det.trace,
        replay::CheckpointLadder::targetsFor(det.clusters),
        core::RaceAnalyzer::replayOptions(opts),
        opts.semantic_predicates);
}

/** Every deterministic field of two classifications: verdict,
 *  evidence and the whole AnalysisStats ledger (wall-clock aside). */
void
expectSameClassification(const core::Classification &plain,
                         const core::Classification &laddered,
                         const std::string &what)
{
    EXPECT_EQ(plain.cls, laddered.cls) << what;
    EXPECT_EQ(plain.viol, laddered.viol) << what;
    EXPECT_EQ(plain.k, laddered.k) << what;
    EXPECT_EQ(plain.detail, laddered.detail) << what;
    EXPECT_EQ(plain.output_diff, laddered.output_diff) << what;
    EXPECT_EQ(plain.states_differ, laddered.states_differ) << what;
    EXPECT_EQ(plain.evidence_inputs, laddered.evidence_inputs) << what;
    EXPECT_EQ(plain.evidence_witness, laddered.evidence_witness)
        << what;
    EXPECT_EQ(plain.evidence_seed, laddered.evidence_seed) << what;
    EXPECT_EQ(plain.evidence_schedule, laddered.evidence_schedule)
        << what;
    EXPECT_EQ(plain.evidence_signature, laddered.evidence_signature)
        << what;
    EXPECT_EQ(plain.evidence_alternate, laddered.evidence_alternate)
        << what;

    const core::AnalysisStats &a = plain.stats;
    const core::AnalysisStats &b = laddered.stats;
    EXPECT_EQ(a.preemptions, b.preemptions) << what;
    EXPECT_EQ(a.sym_branches, b.sym_branches) << what;
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.paths_explored, b.paths_explored) << what;
    EXPECT_EQ(a.schedules_explored, b.schedules_explored) << what;
    EXPECT_EQ(a.distinct_schedules, b.distinct_schedules) << what;
    EXPECT_EQ(a.states_created, b.states_created) << what;
    EXPECT_EQ(a.solver_queries, b.solver_queries) << what;
}

/** Installs a process collector for the scope of one test. */
struct Collect
{
    obs::Collector col;
    Collect() { obs::setCollector(&col); }
    ~Collect() { obs::setCollector(nullptr); }

    std::uint64_t
    counter(obs::Counter c) const
    {
        obs::MetricsShard s;
        col.drainInto(s);
        return s.counter(c);
    }
};

TEST(CheckpointLadderTest, RungEqualsFromZeroReplay)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    core::PortendOptions opts;
    core::DetectionResult det = detectOn(w, opts);
    ASSERT_FALSE(det.clusters.empty());

    replay::CheckpointLadder ladder = ladderFor(w, det, opts);
    ASSERT_GT(ladder.size(), 0u);

    for (const auto &c : det.clusters) {
        const race::RaceReport &race = c.representative;
        const replay::CheckpointLadder::Rung *rung = ladder.find(
            race.first.tid, race.cell, race.first.cell_occurrence);
        if (!rung)
            continue; // replay never reached it: nothing to compare

        // The from-0 replay every analyzer would run.
        rt::ExecOptions eo =
            core::RaceAnalyzer::replayOptions(opts);
        eo.concrete_inputs = det.trace.concreteInputs();
        rt::Interpreter interp(w.program, eo);
        rt::RotatePolicy rotate;
        replay::TracePolicy tp(det.trace,
                               replay::TracePolicy::Mode::Strict,
                               &rotate);
        interp.setPolicy(&tp);
        rt::Interpreter::StopSpec pre;
        pre.before_cell.push_back(
            {race.first.tid, race.cell, race.first.cell_occurrence});
        interp.run(pre);
        ASSERT_TRUE(interp.stopped());
        const rt::VmState &ref = interp.state();

        EXPECT_EQ(rung->state.global_step, ref.global_step);
        EXPECT_EQ(rung->state.current, ref.current);
        EXPECT_EQ(rung->state.stats.preemption_points,
                  ref.stats.preemption_points);
        ASSERT_EQ(rung->state.mem.size(), ref.mem.size());
        for (std::size_t i = 0; i < ref.mem.size(); ++i) {
            EXPECT_TRUE(rung->state.mem[i].equals(ref.mem[i]))
                << "cell " << i;
        }
        EXPECT_EQ(rung->state.access_counts.ro(),
                  ref.access_counts.ro());
        EXPECT_EQ(rung->state.output.concrete_chain.digest(),
                  ref.output.concrete_chain.digest());
        EXPECT_EQ(rung->state.resume_in_segment,
                  ref.resume_in_segment);
    }
}

// The end rung is the state a from-0 strict replay (rotate fallback
// past the trace) ends in, monitor included.
TEST(CheckpointLadderTest, EndRungEqualsFullReplay)
{
    int compared = 0;
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        core::PortendOptions opts;
        core::DetectionResult det = detectOn(w, opts);
        if (det.clusters.empty())
            continue;
        replay::CheckpointLadder ladder = ladderFor(w, det, opts);
        const replay::CheckpointLadder::Rung *end = ladder.end();
        ASSERT_EQ(end != nullptr, ladder.size() > 0) << name;
        if (!end)
            continue;

        rt::ExecOptions eo = core::RaceAnalyzer::replayOptions(opts);
        eo.concrete_inputs = det.trace.concreteInputs();
        rt::Interpreter interp(w.program, eo);
        rt::RotatePolicy rotate;
        replay::TracePolicy tp(det.trace,
                               replay::TracePolicy::Mode::Strict,
                               &rotate);
        interp.setPolicy(&tp);
        rt::SemanticMonitor sem(interp, opts.semantic_predicates);
        interp.addSink(&sem);
        interp.run();
        const rt::VmState &ref = interp.state();

        EXPECT_TRUE(end->state.finished()) << name;
        EXPECT_EQ(ladder.buildSteps(), ref.global_step) << name;
        EXPECT_EQ(end->state.global_step, ref.global_step) << name;
        EXPECT_EQ(end->state.outcome, ref.outcome) << name;
        EXPECT_EQ(end->state.outcome_detail, ref.outcome_detail) << name;
        EXPECT_EQ(end->state.output.concrete_chain.digest(),
                  ref.output.concrete_chain.digest())
            << name;
        ASSERT_EQ(end->state.mem.size(), ref.mem.size()) << name;
        for (std::size_t i = 0; i < ref.mem.size(); ++i) {
            EXPECT_TRUE(end->state.mem[i].equals(ref.mem[i]))
                << name << " cell " << i;
        }
        EXPECT_EQ(end->state.access_counts.ro(), ref.access_counts.ro())
            << name;
        EXPECT_EQ(end->state.stats.preemption_points,
                  ref.stats.preemption_points)
            << name;
        EXPECT_EQ(end->semantics.violation, sem.violation()) << name;
        EXPECT_EQ(end->semantics.violation_cell, sem.violationCell())
            << name;
        ++compared;
    }
    EXPECT_GT(compared, 0);
}

// The headline contract of the ladder: classification with it is
// byte-identical to classification without it — verdict, detail,
// evidence, and the whole ledger — across every registry workload.
TEST(CheckpointLadderTest, ClassifyWithLadderMatchesWithout)
{
    Collect obs;
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        core::PortendOptions opts;
        core::DetectionResult det = detectOn(w, opts);
        if (det.clusters.empty())
            continue;

        replay::CheckpointLadder ladder = ladderFor(w, det, opts);
        core::RaceAnalyzer analyzer(w.program, opts);
        for (const auto &c : det.clusters) {
            core::Classification plain =
                analyzer.classify(c.representative, det.trace);
            core::Classification laddered = analyzer.classify(
                c.representative, det.trace, &ladder);
            // The rungs carry the prefix's and the tail's counters,
            // so even the ledger is identical — the ladder only
            // saves time.
            expectSameClassification(plain, laddered, name);
        }
    }
    // The comparison covered adopted tails, not only forked prefixes.
    EXPECT_GT(obs.counter(obs::Counter::LadderTailForks), 0u);
}

// A budget sliced below the end rung must refuse it: the analyzer's
// own tail replay times out where the ladder's finished.
TEST(CheckpointLadderTest, SlicedBudgetRefusesEndRung)
{
    int sliced = 0;
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        core::PortendOptions opts;
        core::DetectionResult det = detectOn(w, opts);
        if (det.clusters.empty())
            continue;
        replay::CheckpointLadder ladder = ladderFor(w, det, opts);
        const replay::CheckpointLadder::Rung *end = ladder.end();
        if (!end || end->state.outcome == rt::RunOutcome::TimedOut)
            continue;

        for (const auto &c : det.clusters) {
            const race::RaceReport &race = c.representative;
            const replay::CheckpointLadder::Rung *rung = ladder.find(
                race.first.tid, race.cell, race.first.cell_occurrence);
            if (!rung)
                continue;
            const std::uint64_t lo = rung->state.global_step;
            const std::uint64_t hi = end->state.global_step;
            for (std::uint64_t budget : {lo + (hi - lo) / 2, hi - 1, hi}) {
                if (budget <= lo)
                    continue;
                core::PortendOptions task = opts;
                task.max_steps = budget;
                core::RaceAnalyzer analyzer(w.program, task);
                expectSameClassification(
                    analyzer.classify(race, det.trace),
                    analyzer.classify(race, det.trace, &ladder),
                    name + " max_steps " + std::to_string(budget));
                ++sliced;
            }
        }
    }
    EXPECT_GT(sliced, 0);
}

// A ladder built over different inputs must be ignored, not used.
TEST(CheckpointLadderTest, MismatchedInputsFallBackToReplay)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    core::PortendOptions opts;
    core::DetectionResult det = detectOn(w, opts);
    ASSERT_FALSE(det.clusters.empty());
    const race::RaceReport &race = det.clusters[0].representative;

    replay::ScheduleTrace skewed = det.trace;
    for (auto &in : skewed.inputs) {
        if (!in.symbolic)
            in.value += 1;
    }
    std::vector<replay::CheckpointLadder::Target> targets{
        replay::CheckpointLadder::targetFor(race)};
    replay::CheckpointLadder skewed_ladder =
        replay::CheckpointLadder::build(
            w.program, skewed, targets,
            core::RaceAnalyzer::replayOptions(opts),
            opts.semantic_predicates);

    core::RaceAnalyzer analyzer(w.program, opts);
    core::Classification plain =
        analyzer.classify(race, det.trace);
    core::Classification guarded =
        analyzer.classify(race, det.trace, &skewed_ladder);
    EXPECT_EQ(plain.cls, guarded.cls);
    EXPECT_EQ(plain.detail, guarded.detail);
    EXPECT_EQ(plain.stats.steps, guarded.stats.steps);
}

} // namespace
} // namespace portend
