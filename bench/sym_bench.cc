/**
 * @file
 * Symbolic-classification benchmark: path-fork cost of named
 * symbolic inputs, and the no-regression gate for symbolic-off runs.
 *
 * Two measurements, one JSON object (BENCH_sym.json in CI):
 *
 *  1. Path-fork microbench: each input-sensitive extension workload
 *     (ibuf, iguard) is classified with and without `--sym-input n`.
 *     Reports states forked, solver queries, distinct schedules,
 *     verdict, and latency per mode — what making the gate input
 *     symbolic actually costs, and that it buys the upgraded
 *     verdict (the run fails if either workload does not upgrade).
 *
 *  2. Symbolic-off throughput gate: the same classification batch
 *     (micro workloads + bbuf + the extensions, all without
 *     sym_inputs) is timed against a copy whose programs have their
 *     input declarations stripped — the pre-declaration seed
 *     format. Input declarations are metadata the legacy pipeline
 *     never consumes, so the median-of-R ratio must stay within 5%;
 *     CI gates on it.
 *
 * Exit status: 0 when both gates hold, 1 otherwise.
 *
 * Usage: bench_sym_bench [reps]
 *   reps  timed repetitions per batch flavor (default 7; median)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "support/stats.h"

namespace {

using namespace portend;

/** One (workload, mode) path-fork measurement. */
struct ForkRow
{
    std::string verdict;
    int states_created = 0;
    std::uint64_t solver_queries = 0;
    int distinct_schedules = 0;
    std::string witness; ///< "n=5" etc., "" without symbolic inputs
    double seconds = 0.0;
};

ForkRow
measureFork(const workloads::Workload &w, bool symbolic)
{
    core::PortendOptions opts;
    opts.jobs = 1;
    if (symbolic)
        opts.sym_inputs.push_back(rt::SymInputSpec{"n", false, 0, 0});
    core::Portend tool(w.program, opts);
    Stopwatch sw;
    core::PortendResult res = tool.run();
    ForkRow row;
    row.seconds = sw.seconds() - res.detection.seconds;
    using obs::Counter;
    row.states_created = static_cast<int>(
        res.metrics.counter(Counter::ClassifyStatesCreated));
    row.solver_queries = res.metrics.counter(Counter::ClassifySolverQueries);
    row.distinct_schedules = static_cast<int>(
        res.metrics.counter(Counter::ClassifyDistinctSchedules));
    if (!res.reports.empty()) {
        const core::Classification &c =
            res.reports[0].classification;
        row.verdict = core::raceClassName(c.cls);
        std::ostringstream os;
        for (const core::WitnessInput &wi : c.evidence_witness)
            os << (os.tellp() > 0 ? " " : "") << wi.name << "="
               << wi.value;
        row.witness = os.str();
    }
    return row;
}

/** Wall seconds to classify every program in @p batch once. */
double
timeBatch(const std::vector<ir::Program> &batch)
{
    Stopwatch sw;
    for (const ir::Program &p : batch) {
        core::PortendOptions opts;
        opts.jobs = 1;
        core::Portend(p, opts).run();
    }
    return sw.seconds();
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    const int reps = argc > 1 ? std::atoi(argv[1]) : 7;

    // -- 1. Path-fork microbench --------------------------------------
    bool upgraded = true;
    std::ostringstream js;
    js << "{\n  \"bench\": \"sym_bench\",\n";
    js << "  \"fork\": [\n";
    const std::vector<std::string> ext =
        workloads::extensionWorkloadNames();
    for (std::size_t i = 0; i < ext.size(); ++i) {
        workloads::Workload w = workloads::buildWorkload(ext[i]);
        ForkRow off = measureFork(w, false);
        ForkRow on = measureFork(w, true);
        // The symbolic run must upgrade past the concrete verdict
        // and carry a solver-concretized witness.
        if (on.verdict == off.verdict || on.witness.empty())
            upgraded = false;
        js << "    {\"name\": \"" << w.name << "\",\n";
        js << "     \"concrete\": {\"verdict\": \"" << off.verdict
           << "\", \"states\": " << off.states_created
           << ", \"solver_queries\": " << off.solver_queries
           << ", \"distinct_schedules\": " << off.distinct_schedules
           << ", \"seconds\": " << off.seconds << "},\n";
        js << "     \"symbolic\": {\"verdict\": \"" << on.verdict
           << "\", \"states\": " << on.states_created
           << ", \"solver_queries\": " << on.solver_queries
           << ", \"distinct_schedules\": " << on.distinct_schedules
           << ", \"witness\": \"" << on.witness
           << "\", \"seconds\": " << on.seconds << "}}"
           << (i + 1 < ext.size() ? "," : "") << "\n";
    }
    js << "  ],\n";

    // -- 2. Symbolic-off throughput gate ------------------------------
    std::vector<ir::Program> declared;
    std::vector<ir::Program> stripped;
    for (const char *name :
         {"avv", "dcl", "dbm", "rw", "bbuf", "ibuf", "iguard"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        declared.push_back(w.program);
        ir::Program bare = w.program;
        bare.inputs.clear(); // the seed serialization format
        stripped.push_back(std::move(bare));
    }
    timeBatch(declared); // warm-up (page-in, allocator steady state)
    std::vector<double> with_decls;
    std::vector<double> without_decls;
    for (int r = 0; r < reps; ++r) {
        with_decls.push_back(timeBatch(declared));
        without_decls.push_back(timeBatch(stripped));
    }
    const double t_decl = median(with_decls);
    const double t_bare = median(without_decls);
    const double ratio = t_bare > 0.0 ? t_decl / t_bare : 1.0;
    const bool within = ratio <= 1.05;

    js << "  \"symbolic_off\": {\"reps\": " << reps
       << ", \"declared_seconds\": " << t_decl
       << ", \"stripped_seconds\": " << t_bare
       << ", \"ratio\": " << ratio << "},\n";
    const bool pass = upgraded && within;
    js << "  \"gate\": {\"require\": \"sym run upgrades with a "
          "witness; symbolic-off within 5% of the decl-stripped "
          "seed batch\", \"pass\": " << (pass ? "true" : "false")
       << "}\n}\n";
    std::fputs(js.str().c_str(), stdout);
    return pass ? 0 : 1;
}
