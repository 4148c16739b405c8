/** @file Determinism and accounting tests for the parallel
 *  classification scheduler. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "portend/portend.h"
#include "portend/scheduler.h"
#include "workloads/registry.h"

namespace portend::core {
namespace {

/** Run one workload's full pipeline with the given worker count. */
PortendResult
runWith(const workloads::Workload &w, int jobs,
        std::uint64_t seed = 1)
{
    PortendOptions opts;
    opts.jobs = jobs;
    opts.detection_seed = seed;
    opts.semantic_predicates = w.semantic_predicates;
    Portend tool(w.program, opts);
    return tool.run();
}

/** One counter of a pipeline result's merged metrics shard. */
std::uint64_t
counter(const PortendResult &res, obs::Counter c)
{
    return res.metrics.counter(c);
}

/** Concatenated Fig. 6 report text of a pipeline result. */
std::string
reportText(const ir::Program &prog, const PortendResult &res)
{
    std::ostringstream os;
    for (const PortendReport &r : res.reports)
        os << formatReport(prog, r);
    return os.str();
}

// The headline contract: a full-suite run with jobs=4 produces the
// same verdicts, k values, and Fig. 6 report bytes as jobs=1 at the
// same seed. Parallelism must be a pure throughput dial.
TEST(SchedulerDeterminismTest, FullSuiteIdenticalAcrossJobs)
{
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        PortendResult seq = runWith(w, 1);
        PortendResult par = runWith(w, 4);

        ASSERT_EQ(seq.reports.size(), par.reports.size()) << name;
        for (std::size_t i = 0; i < seq.reports.size(); ++i) {
            const Classification &a = seq.reports[i].classification;
            const Classification &b = par.reports[i].classification;
            EXPECT_EQ(a.cls, b.cls) << name << " cluster " << i;
            EXPECT_EQ(a.k, b.k) << name << " cluster " << i;
            EXPECT_EQ(a.viol, b.viol) << name << " cluster " << i;
            EXPECT_EQ(a.detail, b.detail) << name << " cluster " << i;
        }
        EXPECT_EQ(reportText(w.program, seq),
                  reportText(w.program, par))
            << name;
    }
}

// Detection is untouched by the scheduler refactor: same clusters,
// same trace, same step counts for any jobs value.
TEST(SchedulerDeterminismTest, DetectionUnaffectedByJobs)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult seq = runWith(w, 1);
    PortendResult par = runWith(w, 4);
    EXPECT_EQ(seq.detection.dynamic_races, par.detection.dynamic_races);
    EXPECT_EQ(seq.detection.clusters.size(),
              par.detection.clusters.size());
    EXPECT_EQ(seq.detection.steps, par.detection.steps);
}

TEST(SchedulerStatsTest, LedgerMatchesPerClusterStats)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult res = runWith(w, 2);
    ASSERT_FALSE(res.reports.empty());

    std::uint64_t steps = 0;
    int schedules = 0;
    for (const PortendReport &r : res.reports) {
        steps += r.classification.stats.steps;
        schedules += r.classification.stats.schedules_explored;
    }
    EXPECT_EQ(counter(res, obs::Counter::ClassifySteps), steps);
    EXPECT_EQ(counter(res, obs::Counter::ClassifySchedules),
              static_cast<std::uint64_t>(schedules));
    EXPECT_EQ(counter(res, obs::Counter::ClassifyClusters),
              res.reports.size());
    EXPECT_GT(steps, 0u);
}

TEST(SchedulerStatsTest, PerClusterWallTimeIsRecorded)
{
    workloads::Workload w = workloads::buildWorkload("bbuf");
    PortendResult res = runWith(w, 2);
    ASSERT_FALSE(res.reports.empty());
    for (const PortendReport &r : res.reports) {
        EXPECT_GT(r.classification.stats.seconds, 0.0);
        EXPECT_GE(r.classification.stats.queue_seconds, 0.0);
    }
}

TEST(SchedulerBudgetTest, GlobalBudgetsSliceDeterministically)
{
    workloads::Workload w = workloads::buildWorkload("bbuf");
    PortendOptions opts;
    opts.total_state_budget = 64;
    opts.total_step_budget = 4000000;
    rt::StaticInfo si(w.program);

    ClassificationScheduler sched(w.program, opts, si);
    for (std::size_t i = 0; i < 4; ++i) {
        PortendOptions sliced = sched.taskOptions(4, i);
        EXPECT_EQ(sliced.executor_max_states, 16) << "cluster " << i;
        EXPECT_EQ(sliced.max_steps, 1000000u) << "cluster " << i;
    }

    // Slices never exceed the per-task caps.
    PortendOptions one = sched.taskOptions(1, 0);
    EXPECT_EQ(one.executor_max_states, 64);
    EXPECT_EQ(one.max_steps, opts.max_steps);

    // Without global budgets the per-task caps pass through.
    PortendOptions unbudgeted;
    ClassificationScheduler plain(w.program, unbudgeted, si);
    PortendOptions same = plain.taskOptions(8, 3);
    EXPECT_EQ(same.executor_max_states,
              unbudgeted.executor_max_states);
    EXPECT_EQ(same.max_steps, unbudgeted.max_steps);
}

// Budgets that do not divide evenly must not lose their remainder:
// the first `total % n` clusters carry one extra unit and the slices
// sum back to the exact global budget.
TEST(SchedulerBudgetTest, SliceRemainderIsDistributed)
{
    workloads::Workload w = workloads::buildWorkload("bbuf");
    PortendOptions opts;
    opts.total_state_budget = 65;      // 65 = 4*16 + 1
    opts.total_step_budget = 4000003;  // 4000003 = 4*1000000 + 3
    rt::StaticInfo si(w.program);
    ClassificationScheduler sched(w.program, opts, si);

    int state_sum = 0;
    std::uint64_t step_sum = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        PortendOptions sliced = sched.taskOptions(4, i);
        state_sum += sliced.executor_max_states;
        step_sum += sliced.max_steps;
        // The remainder lands on the lowest indices, one unit each.
        EXPECT_EQ(sliced.executor_max_states, i == 0 ? 17 : 16)
            << "cluster " << i;
        EXPECT_EQ(sliced.max_steps, i < 3 ? 1000001u : 1000000u)
            << "cluster " << i;
    }
    EXPECT_EQ(state_sum, opts.total_state_budget);
    EXPECT_EQ(step_sum, opts.total_step_budget);
}

// The scheduler's ladder accounting: one build replay per batch, and
// a rung for every cluster the replay reached.
TEST(SchedulerLadderTest, LadderIsBuiltOncePerBatch)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult res = runWith(w, 2);
    ASSERT_FALSE(res.reports.empty());
    const std::uint64_t rungs = counter(res, obs::Counter::LadderRungs);
    EXPECT_GT(rungs, 0u);
    EXPECT_LE(rungs, counter(res, obs::Counter::ClassifyClusters));
    EXPECT_GT(counter(res, obs::Counter::LadderBuildSteps), 0u);
    // Every covered cluster saves at least its own prefix replay.
    EXPECT_GE(counter(res, obs::Counter::LadderCoveredSteps), rungs);
}

TEST(SchedulerBudgetTest, JobsZeroResolvesToHardware)
{
    workloads::Workload w = workloads::buildWorkload("avv");
    PortendOptions opts;
    opts.jobs = 0;
    rt::StaticInfo si(w.program);
    ClassificationScheduler sched(w.program, opts, si);
    EXPECT_GE(sched.jobs(), 1);
}

/** Full pipeline under an explicit worker count. */
PortendResult
runWithJobs(const workloads::Workload &w, int jobs, int ma = 4)
{
    PortendOptions opts;
    opts.jobs = jobs;
    opts.ma = ma;
    opts.semantic_predicates = w.semantic_predicates;
    Portend tool(w.program, opts);
    return tool.run();
}

// The explorer is job-local state driven only by its own cluster's
// runs: dpor verdicts, k counts, distinct-schedule ledgers, and the
// Fig. 6 report bytes are identical across --jobs values. (The same
// byte streams are pinned by the golden suite, which CI runs under
// both the regular and TSan builds — cross-build identity rides on
// that.)
TEST(ExplorerDeterminismTest, DporIdenticalAcrossJobs)
{
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        PortendResult seq = runWithJobs(w, 1);
        PortendResult par = runWithJobs(w, 4);

        ASSERT_EQ(seq.reports.size(), par.reports.size()) << name;
        for (std::size_t i = 0; i < seq.reports.size(); ++i) {
            const Classification &a = seq.reports[i].classification;
            const Classification &b = par.reports[i].classification;
            EXPECT_EQ(a.cls, b.cls) << name << " cluster " << i;
            EXPECT_EQ(a.k, b.k) << name << " cluster " << i;
            EXPECT_EQ(a.stats.distinct_schedules,
                      b.stats.distinct_schedules)
                << name << " cluster " << i;
            EXPECT_EQ(a.stats.schedules_explored,
                      b.stats.schedules_explored)
                << name << " cluster " << i;
            EXPECT_EQ(a.evidence_signature, b.evidence_signature)
                << name << " cluster " << i;
            EXPECT_EQ(a.evidence_schedule, b.evidence_schedule)
                << name << " cluster " << i;
        }
        EXPECT_EQ(reportText(w.program, seq),
                  reportText(w.program, par))
            << name;
        EXPECT_EQ(counter(seq, obs::Counter::ClassifyDistinctSchedules),
                  counter(par, obs::Counter::ClassifyDistinctSchedules))
            << name;
    }
}

// Rerunning the identical dpor configuration twice is byte-stable —
// the explorer has no hidden wall-clock or address-order state
// (this is what makes the TSan build's golden runs meaningful).
TEST(ExplorerDeterminismTest, DporIsRunToRunStable)
{
    workloads::Workload w = workloads::buildWorkload("ctrace");
    PortendResult one = runWithJobs(w, 2);
    PortendResult two = runWithJobs(w, 2);
    EXPECT_EQ(reportText(w.program, one), reportText(w.program, two));
    EXPECT_EQ(counter(one, obs::Counter::ClassifyDistinctSchedules),
              counter(two, obs::Counter::ClassifyDistinctSchedules));
}

// The batch ledger aggregates the per-cluster distinct-schedule
// counts exactly (scheduler accounting for the new stat).
TEST(SchedulerStatsTest, DistinctScheduleLedgerSums)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult res = runWith(w, 2);
    std::uint64_t distinct = 0;
    for (const PortendReport &r : res.reports) {
        EXPECT_LE(r.classification.stats.distinct_schedules,
                  r.classification.stats.schedules_explored);
        distinct += static_cast<std::uint64_t>(
            r.classification.stats.distinct_schedules);
    }
    EXPECT_EQ(counter(res, obs::Counter::ClassifyDistinctSchedules),
              distinct);
}

// classifyRace now reuses the facade's analyzer (and its hoisted
// StaticInfo): repeated calls agree with each other and with the
// batch verdict for the same race.
TEST(SchedulerReuseTest, ClassifyRaceReusesAnalyzer)
{
    workloads::Workload w = workloads::buildWorkload("avv");
    PortendOptions opts;
    opts.semantic_predicates = w.semantic_predicates;
    Portend tool(w.program, opts);
    DetectionResult det = tool.detect();
    ASSERT_FALSE(det.clusters.empty());

    const race::RaceReport &race = det.clusters[0].representative;
    Classification first = tool.classifyRace(race, det.trace);
    Classification second = tool.classifyRace(race, det.trace);
    EXPECT_EQ(first.cls, second.cls);
    EXPECT_EQ(first.k, second.k);
    EXPECT_EQ(first.detail, second.detail);
}

} // namespace
} // namespace portend::core
