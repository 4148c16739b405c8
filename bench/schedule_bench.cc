/**
 * @file
 * Schedule-exploration benchmark: distinct interleavings per budget
 * and verdict latency, `random` vs `dpor`.
 *
 * Measures what the Ma budget actually buys under each stage-3
 * explorer, over two micro suites:
 *
 *  1. the registry micro workloads (avv, dcl, dbm, rw, bbuf) —
 *     paper-faithful programs whose post-race spaces are small, so
 *     both explorers saturate them (the honest baseline rows);
 *
 *  2. schedule-rich micro programs ("flip gadgets"): workers with
 *     staggered private preambles all appending to one shared log
 *     cell behind a benign anchoring race. Their post-race class
 *     count is combinatorial and uniform sampling is heavily biased
 *     toward short-preamble-first orders — the regime the dpor
 *     explorer exists for.
 *
 * Emits one JSON object (BENCH_schedules.json in CI) with
 * per-subject and aggregate distinct-schedule counts and batch
 * classification latency per explorer. Exit status: 0 when, over
 * the schedule-rich gadgets, dpor witnessed >= 2x the distinct
 * post-race interleavings random did at the same Ma budget (and
 * at least as many on every subject), 1 otherwise — CI gates on it.
 *
 * Usage: bench_schedule_bench [ma] [gadget_workers] [stride]
 *   ma              schedule budget per primary (default 8)
 *   gadget_workers  threads per flip gadget (default 4)
 *   stride          preamble ops per worker index (default 6)
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "explore/explorer.h"
#include "ir/builder.h"
#include "support/stats.h"

namespace {

using namespace portend;
using ir::I;
using ir::R;
using K = sym::ExprKind;

/** One measured program. */
struct Subject
{
    std::string name;
    bool gadget = false; ///< counts toward the gated ratio
    ir::Program program;
    std::vector<core::SemanticPredicate> semantic_predicates;
};

/** One (subject, explorer) measurement. */
struct Row
{
    int explored = 0;  ///< stage-3 schedules run
    int distinct = 0;  ///< Mazurkiewicz-inequivalent ones
    double seconds = 0.0; ///< classification batch latency
    std::string classes;  ///< verdict histogram (sanity)
};

/** The flip gadget (see file comment). */
ir::Program
flipGadget(const std::string &name, int workers, int stride)
{
    ir::ProgramBuilder pb(name);
    ir::GlobalId sync = pb.global("sync_cell");
    ir::GlobalId log = pb.global("log_cell");
    std::vector<std::string> names;
    for (int w = 0; w < workers; ++w) {
        std::string fn = "w" + std::to_string(w);
        names.push_back(fn);
        ir::GlobalId priv = pb.global(fn + "_priv");
        auto &f = pb.function(fn, 1);
        f.to(f.block("e"));
        f.store(sync, I(0), I(1)); // benign anchoring race
        for (int i = 0; i < w * stride; ++i) {
            ir::Reg v = f.load(priv);
            f.store(priv, I(0), R(f.bin(K::Add, R(v), I(1))));
        }
        ir::Reg lv = f.load(log);
        f.store(log, I(0),
                R(f.bin(K::Add, R(f.bin(K::Mul, R(lv), I(10))),
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

Row
measure(const Subject &s, explore::ExploreMode mode, int ma)
{
    core::PortendOptions opts;
    opts.jobs = 1;
    opts.ma = ma;
    opts.explore = mode;
    opts.semantic_predicates = s.semantic_predicates;
    core::Portend tool(s.program, opts);
    Stopwatch sw;
    core::PortendResult res = tool.run();
    Row row;
    row.seconds = sw.seconds() - res.detection.seconds;
    row.explored = static_cast<int>(
        res.metrics.counter(obs::Counter::ClassifySchedules));
    row.distinct = static_cast<int>(
        res.metrics.counter(obs::Counter::ClassifyDistinctSchedules));
    std::map<std::string, int> hist;
    for (const core::PortendReport &r : res.reports)
        hist[core::raceClassName(r.classification.cls)] += 1;
    std::ostringstream os;
    for (const auto &[cls, n] : hist)
        os << (os.tellp() > 0 ? "," : "") << cls << ":" << n;
    row.classes = os.str();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const int ma = argc > 1 ? std::atoi(argv[1]) : 8;
    const int workers = argc > 2 ? std::atoi(argv[2]) : 4;
    const int stride = argc > 3 ? std::atoi(argv[3]) : 6;

    std::vector<Subject> subjects;
    for (const char *name : {"avv", "dcl", "dbm", "rw", "bbuf"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        subjects.push_back({w.name, false, w.program,
                            w.semantic_predicates});
    }
    for (int g = 0; g < 3; ++g) {
        std::string name = "flip-gadget-w" +
                           std::to_string(workers - g) + "-s" +
                           std::to_string(stride + 2 * g);
        subjects.push_back({name, true,
                            flipGadget(name, workers - g,
                                       stride + 2 * g),
                            {}});
    }

    int gadget_random = 0;
    int gadget_dpor = 0;
    bool per_subject_ok = true;

    std::ostringstream js;
    js << "{\n  \"bench\": \"schedule_bench\",\n";
    js << "  \"ma\": " << ma << ",\n";
    js << "  \"subjects\": [\n";
    for (std::size_t i = 0; i < subjects.size(); ++i) {
        const Subject &s = subjects[i];
        Row rnd = measure(s, explore::ExploreMode::Random, ma);
        Row dpo = measure(s, explore::ExploreMode::Dpor, ma);
        if (s.gadget) {
            gadget_random += rnd.distinct;
            gadget_dpor += dpo.distinct;
        }
        if (dpo.distinct < rnd.distinct)
            per_subject_ok = false;
        js << "    {\"name\": \"" << s.name << "\", \"gadget\": "
           << (s.gadget ? "true" : "false") << ",\n";
        js << "     \"random\": {\"explored\": " << rnd.explored
           << ", \"distinct\": " << rnd.distinct
           << ", \"seconds\": " << rnd.seconds << ", \"classes\": \""
           << rnd.classes << "\"},\n";
        js << "     \"dpor\": {\"explored\": " << dpo.explored
           << ", \"distinct\": " << dpo.distinct
           << ", \"seconds\": " << dpo.seconds << ", \"classes\": \""
           << dpo.classes << "\"}}"
           << (i + 1 < subjects.size() ? "," : "") << "\n";
    }
    js << "  ],\n";
    const double ratio =
        gadget_random > 0
            ? static_cast<double>(gadget_dpor) / gadget_random
            : 0.0;
    js << "  \"gadget_totals\": {\"random_distinct\": "
       << gadget_random << ", \"dpor_distinct\": " << gadget_dpor
       << ", \"ratio\": " << ratio << "},\n";
    const bool pass = ratio >= 2.0 && per_subject_ok;
    js << "  \"gate\": {\"require\": \"dpor >= 2x random distinct "
          "on gadgets, >= on every subject\", \"pass\": "
       << (pass ? "true" : "false") << "}\n}\n";
    std::fputs(js.str().c_str(), stdout);
    return pass ? 0 : 1;
}
