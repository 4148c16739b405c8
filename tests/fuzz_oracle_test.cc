/**
 * @file
 * Differential-oracle tests: the full check battery is clean on
 * generated programs and on the paper workloads, signatures are
 * stable, and every advertised check actually runs.
 */

#include <gtest/gtest.h>

#include <set>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "workloads/registry.h"

namespace portend::fuzz {
namespace {

TEST(FuzzOracle, CleanOnGeneratedPrograms)
{
    GeneratorOptions gopts;
    OracleOptions oopts;
    for (std::uint64_t i = 0; i < 16; ++i) {
        GeneratedProgram g = generateProgram(42, i, gopts);
        ASSERT_TRUE(g.verify_errors.empty());
        oopts.deep = i % 4 == 0;
        OracleVerdict v = runOracle(g.program, oopts);
        EXPECT_FALSE(v.flagged())
            << "index " << i << ": check '" << v.firstFailure()
            << "' failed";
    }
}

TEST(FuzzOracle, CleanOnPaperMicrobenchmarks)
{
    OracleOptions opts;
    opts.deep = true;
    for (const char *name : {"avv", "dcl", "dbm", "rw", "bbuf"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        OracleVerdict v = runOracle(w.program, opts);
        EXPECT_FALSE(v.flagged())
            << name << ": check '" << v.firstFailure() << "' failed";
        EXPECT_GT(v.distinct_races, 0) << name;
    }
}

TEST(FuzzOracle, DeepBatteryRunsAllChecks)
{
    GeneratedProgram g = generateProgram(42, 0, GeneratorOptions{});
    OracleOptions opts;
    opts.deep = true;
    OracleVerdict v = runOracle(g.program, opts);

    std::set<std::string> names;
    for (const CheckResult &c : v.checks)
        names.insert(c.name);
    for (const char *want :
         {"verify", "roundtrip", "hb-subset-nomutex",
          "hb-subset-lockset", "determinism", "jobs-invariance",
          "k-monotonicity", "ma-monotonicity"}) {
        EXPECT_TRUE(names.count(want)) << "check missing: " << want;
    }
}

// The symbolic battery (sym-monotonicity + witness-replay) runs
// exactly when the program declares inputs, and on the
// input-sensitive extension workloads it must be clean and record a
// solver-concretized witness for the upgraded verdict.
TEST(FuzzOracle, SymbolicBatteryCleanOnExtensionWorkloads)
{
    OracleOptions opts;
    opts.deep = true;
    for (const char *name : {"ibuf", "iguard"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        ASSERT_FALSE(w.program.inputs.empty());
        OracleVerdict v = runOracle(w.program, opts);
        EXPECT_FALSE(v.flagged())
            << name << ": check '" << v.firstFailure() << "' failed";
        std::set<std::string> names;
        for (const CheckResult &c : v.checks)
            names.insert(c.name);
        EXPECT_TRUE(names.count("sym-monotonicity")) << name;
        EXPECT_TRUE(names.count("witness-replay")) << name;
        EXPECT_NE(v.witness_text.find(":n="), std::string::npos)
            << name << ": witness_text = '" << v.witness_text << "'";
    }
}

TEST(FuzzOracle, SymbolicBatterySkippedWithoutInputDecls)
{
    workloads::Workload w = workloads::buildWorkload("avv");
    ASSERT_TRUE(w.program.inputs.empty());
    OracleOptions opts;
    opts.deep = true;
    OracleVerdict v = runOracle(w.program, opts);
    for (const CheckResult &c : v.checks) {
        EXPECT_NE(c.name, "sym-monotonicity");
        EXPECT_NE(c.name, "witness-replay");
    }
    EXPECT_TRUE(v.witness_text.empty());
}

// The schedule-coverage monotonicity property: across a generated
// batch, doubling Ma never loses a "spec violated" verdict.
TEST(FuzzOracle, ScheduleCoverageMonotonicityHolds)
{
    GeneratorOptions gopts;
    OracleOptions oopts;
    oopts.deep = true;
    for (std::uint64_t i = 0; i < 6; ++i) {
        GeneratedProgram g = generateProgram(1337, i, gopts);
        ASSERT_TRUE(g.verify_errors.empty());
        OracleVerdict v = runOracle(g.program, oopts);
        for (const CheckResult &c : v.checks) {
            if (c.name == "ma-monotonicity") {
                EXPECT_TRUE(c.ok)
                    << "index " << i << ": " << c.name << ": " << c.detail;
            }
        }
    }
}

// The monotonicity property also holds on the paper workloads —
// including the ones whose stage 3 actually decides the verdict.
TEST(FuzzOracle, ScheduleCoverageMonotonicityOnWorkloads)
{
    OracleOptions opts;
    opts.deep = true;
    for (const char *name : {"pbzip2", "bbuf", "avv"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        OracleVerdict v = runOracle(w.program, opts);
        for (const CheckResult &c : v.checks) {
            if (c.name == "ma-monotonicity") {
                EXPECT_TRUE(c.ok)
                    << name << ": " << c.name << ": " << c.detail;
            }
        }
    }
}

TEST(FuzzOracle, ShallowBatterySkipsMetamorphicReruns)
{
    GeneratedProgram g = generateProgram(42, 1, GeneratorOptions{});
    OracleOptions opts;
    opts.deep = false;
    OracleVerdict v = runOracle(g.program, opts);
    for (const CheckResult &c : v.checks) {
        EXPECT_NE(c.name, "determinism");
        EXPECT_NE(c.name, "jobs-invariance");
        EXPECT_NE(c.name, "k-monotonicity");
    }
}

TEST(FuzzOracle, SignatureIsStableAcrossRuns)
{
    GeneratedProgram g = generateProgram(7, 3, GeneratorOptions{});
    OracleOptions opts;
    OracleVerdict a = runOracle(g.program, opts);
    OracleVerdict b = runOracle(g.program, opts);
    EXPECT_EQ(a.signature(), b.signature());
    EXPECT_EQ(a.trace_text, b.trace_text);
    EXPECT_EQ(a.report_text, b.report_text);
}

TEST(FuzzOracle, SignatureReflectsDetectionSeed)
{
    // Different schedule seeds may expose different interleavings;
    // whatever they find, the signature must name the seed's own
    // results deterministically (two runs at each seed agree).
    GeneratedProgram g = generateProgram(7, 5, GeneratorOptions{});
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        OracleOptions opts;
        opts.detection_seed = seed;
        EXPECT_EQ(runOracle(g.program, opts).signature(),
                  runOracle(g.program, opts).signature());
    }
}

TEST(FuzzOracle, FlagsStructurallyInvalidPrograms)
{
    ir::Program p; // no functions at all
    OracleVerdict v = runOracle(p, OracleOptions{});
    EXPECT_TRUE(v.flagged());
    EXPECT_EQ(v.firstFailure(), "verify");
}

} // namespace
} // namespace portend::fuzz
