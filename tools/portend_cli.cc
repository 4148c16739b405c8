/**
 * @file
 * `portend` command-line driver: runs the full Fig. 2 pipeline
 * (record + detect, then multi-path multi-schedule classification)
 * over any workload registered in the benchmark suite, and renders
 * the verdicts either as the paper's Fig. 6 debugging-aid report or
 * as JSON for downstream tooling.
 *
 * The help text below is kept in sync with docs/CLI.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "explore/explorer.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "ir/serialize.h"
#include "portend/classify.h"
#include "portend/portend.h"
#include "portend/render.h"
#include "rt/interpreter.h"
#include "rt/vmstate.h"
#include "support/observe.h"
#include "support/str.h"
#include "support/threadpool.h"
#include "support/trace.h"
#include "workloads/registry.h"

namespace {

using namespace portend;

// Keep this text byte-identical with the Usage section of
// docs/CLI.md (the cli_help_doc test diffs the two).
const char kUsage[] =
    R"(portend - tell data races apart from data race bugs (ASPLOS 2012)

Usage:
  portend list                          list registered workloads
  portend run <workload> [options]      detect and classify every race
  portend run --all [options]           whole registry, one report each
  portend run --file <prog.pil> [options]    same pipeline on a PIL file
  portend classify <workload> [options] classify with an explicit k budget
  portend classify --all [options]      whole registry, compact tables
  portend classify --file <prog.pil> [options]   compact table for a file
  portend campaign run <dir> [options]  persistent classification campaign
                                        over the whole registry: verdicts
                                        are cached by content signature
                                        and journaled under <dir>, so a
                                        killed campaign resumes where it
                                        left off and a warm re-run costs
                                        one cache probe per unit
  portend campaign resume <dir>         continue a campaign exactly as
                                        configured (all analysis flags
                                        come from the stored manifest)
  portend campaign status <dir>         report completed/total units
                                        (exit 0 when complete, 3 when
                                        work remains)
  portend fuzz [options]                generate racy PIL programs, cross-
                                        check detectors and classifier,
                                        minimize and store reproducers
  portend corpus run <dir> [--explore <name>] [--quiet]
                                        replay a reproducer corpus
  portend --help                        print this help

Workloads:
  pbzip2  ctrace  memcached  sqlite  ocean  fmm  bbuf  avv  dcl  dbm  rw
  input-sensitive extensions (classify with --sym-input): ibuf  iguard
  (run `portend list` for the Table 1 metadata of each)

Options:
  --k <N>              path x schedule witness budget: sets Mp = N,
                       Ma = 2 when N >= 5 (else 1), and enables
                       multi-path at N > 1, multi-schedule at N >= 5
  --mp <N>             primary paths explored (Mp, default 5)
  --ma <N>             alternate-schedule budget per primary (Ma,
                       default 2): distinct post-race interleavings
                       under the dpor explorer, plain run count
                       under random
  --explore <name>     stage-3 schedule explorer: "dpor" enumerates
                       bounded-preemption interleavings, prunes
                       Mazurkiewicz-equivalent ones, and spends Ma
                       on provably distinct schedules; "random" is
                       the legacy seeded sampler (default dpor)
  --jobs <N>           worker threads for classification, batch mode,
                       and fuzzing (default: one per hardware
                       thread); results are identical for every N
  --seed <N>           detection-run schedule seed (default 1)
  --detector <name>    hb | hb-nomutex | lockset (default hb)
  --class <name>       only report races of this class (paper
                       spelling, e.g. "spec violated")
  --sym-input <name>[=lo..hi]
                       make the named program input symbolic during
                       multi-path analysis (repeatable). Only
                       matching inputs fork paths; a decisive
                       verdict records a solver-concretized witness
                       value per symbolic input, and an explicit
                       lo..hi overrides the input's declared domain
  --no-multi-path      disable multi-path analysis (stage 2)
  --no-multi-schedule  disable multi-schedule analysis (stage 3)
  --no-adhoc           disable ad-hoc synchronization detection
  --json               emit a JSON report instead of the Fig. 6 text
  --stats              append the interpreter ledger of the detection
                       run: dispatch mode, decoded sites, events
                       batched, COW pages unshared, values boxed
  --dispatch <mode>    interpreter dispatch loop for every execution
                       in the process: "threaded" (computed-goto,
                       error where unsupported), "switch" (portable),
                       or "auto" (threaded when available; default).
                       Accepted before any command

Observability options (run, classify, campaign, fuzz, corpus run):
  --trace-out <file>   write a Chrome trace-event JSON timeline of
                       the run: replay, ladder-fork, DPOR-candidate,
                       sym-path-fork, and solver spans with nested
                       parents per thread (open in chrome://tracing
                       or Perfetto)
  --metrics-out <file> write the merged metrics-registry JSON
                       (portend-metrics-v1). Counters, gauges, and
                       histograms only — no timing, no worker
                       counts — so the bytes are identical across
                       --jobs values and across runs
  --progress <mode>    stream JSON-lines telemetry to stderr while
                       the pipeline runs; the only mode is "jsonl"
                       (one event per classified cluster, explored
                       schedule, and fuzz iteration)
  --quiet              suppress the end-of-run metrics summary line
                       of `fuzz` and `corpus run`

Campaign options (portend campaign run/resume):
  --abort-after <N>    stop claiming new units once N have been
                       executed and journaled by this invocation
                       (crash simulation for kill-and-resume
                       testing); exits with code 3 while work
                       remains

Fuzzing options (portend fuzz):
  --budget <N>         programs to generate (default 200); with a
                       fixed --fuzz-seed the campaign is
                       deterministic: summary and corpus bytes are
                       byte-identical on every run and --jobs value
  --seconds <S>        wall-clock box instead of --budget (program
                       count then depends on the host)
  --fuzz-seed <N>      program-generation seed (default 1); --seed
                       stays the detection schedule seed, so the two
                       vary independently
  --corpus <dir>       write minimized reproducers here (replay them
                       with `portend corpus run <dir>`)
  --campaign <dir>     persist the fuzz campaign under <dir>: every
                       generated program's verdict is cached by
                       program fingerprint + oracle config and
                       journaled, so an interrupted campaign resumes
                       where it left off and a duplicate generated
                       program costs one cache probe

Race classes (paper Fig. 1):
  spec violated        an ordering crashes, deadlocks, or hangs
  output differs       orderings can produce different program output
  k-witness harmless   k path x schedule witnesses saw equal output
  single ordering      only one ordering is possible (ad-hoc sync)
)";

/**
 * The shared observability/verbosity flags. Every subcommand parser
 * (run/classify, campaign, fuzz, corpus) consumes these through the
 * one parseObsFlag helper below instead of hand-rolling the same
 * four branches.
 */
struct ObsFlags
{
    std::string trace_out;   ///< --trace-out file ("" = off)
    std::string metrics_out; ///< --metrics-out file ("" = off)
    bool progress_jsonl = false; ///< --progress jsonl
    bool quiet = false;          ///< --quiet (fuzz, corpus run)
};

struct CliOptions
{
    core::PortendOptions opts;
    bool json = false;
    bool stats = false; ///< append the interpreter ledger
    int k = 0; ///< 0 = not given
    std::optional<core::RaceClass> only_class; ///< --class filter
    ObsFlags obs; ///< shared observability flags
};

// ---------------------------------------------------------------------------
// Observability sinks. One set per process: installed from the CLI
// flags before the pipeline runs, drained into files afterwards.
// ---------------------------------------------------------------------------

obs::Collector g_collector;
std::optional<obs::Tracer> g_tracer;
std::optional<obs::Progress> g_progress;

/** Install the process-wide sinks requested by the flags. */
void
installObsSinks(const std::string &trace_out,
                const std::string &metrics_out, bool progress_jsonl,
                bool force_collector)
{
    if (!trace_out.empty()) {
        g_tracer.emplace();
        obs::setTracer(&*g_tracer);
    }
    if (force_collector || !metrics_out.empty())
        obs::setCollector(&g_collector);
    if (progress_jsonl) {
        g_progress.emplace(std::cerr);
        obs::setProgress(&*g_progress);
    }
}

/**
 * Write the observability outputs. `pipeline` carries the shards the
 * pipelines threaded through their result structs (merged in registry
 * order by the caller); the collector contributes everything bumped
 * globally (interpreter runs, solver queries, path forks, ...).
 * Returns 0, or 1 if a file could not be written.
 */
int
writeObsOutputs(const std::string &trace_out,
                const std::string &metrics_out,
                const obs::MetricsShard &pipeline)
{
    int rc = 0;
    if (!metrics_out.empty()) {
        obs::MetricsShard total = pipeline;
        g_collector.drainInto(total);
        std::ofstream f(metrics_out, std::ios::binary);
        if (f)
            f << obs::metricsJson(total);
        if (!f) {
            std::fprintf(stderr, "portend: cannot write %s\n",
                         metrics_out.c_str());
            rc = 1;
        }
    }
    if (!trace_out.empty()) {
        std::string err;
        if (!g_tracer->writeFile(trace_out, &err)) {
            std::fprintf(stderr, "portend: %s\n", err.c_str());
            rc = 1;
        }
    }
    return rc;
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "portend: %s\n(try `portend --help`)\n",
                 msg.c_str());
    std::exit(2);
}

/** Parse an --explore value; usage error on anything unknown. */
explore::ExploreMode
parseExploreMode(const char *value)
{
    if (!value)
        usageError("--explore needs a value");
    std::string e = value;
    if (e == "dpor")
        return explore::ExploreMode::Dpor;
    if (e == "random")
        return explore::ExploreMode::Random;
    usageError("unknown explorer: " + e +
               " (expected dpor or random)");
}

std::int64_t
parseInt(const char *flag, const char *value)
{
    if (!value)
        usageError(std::string(flag) + " needs a value");
    std::int64_t v = 0;
    // parseI64 checks errno == ERANGE, so an overflowing value like
    // --ma 99999999999999999999 is an error here instead of silently
    // saturating at INT64_MAX.
    if (!parseI64(value, &v))
        usageError(std::string(flag) +
                   ": not a number in the 64-bit range: " + value);
    return v;
}

/** Parse a count/budget flag into an int in [min_value, INT_MAX]. */
int
parseCount(const char *flag, const char *value, int min_value)
{
    const std::int64_t v = parseInt(flag, value);
    if (v < min_value ||
        v > std::numeric_limits<int>::max())
        usageError(std::string(flag) + " must be between " +
                   std::to_string(min_value) + " and " +
                   std::to_string(std::numeric_limits<int>::max()));
    return static_cast<int>(v);
}

/** Parse a seed flag: any non-negative 64-bit value. */
std::uint64_t
parseSeed(const char *flag, const char *value)
{
    const std::int64_t v = parseInt(flag, value);
    if (v < 0)
        usageError(std::string(flag) + " must be >= 0");
    return static_cast<std::uint64_t>(v);
}

/**
 * Consume the shared observability flag at argv[i], if it is one:
 * --trace-out <file>, --metrics-out <file>, --progress <mode>, and —
 * for the commands with a stderr summary line — --quiet. Returns
 * true (with @p i advanced past any value) when the flag was
 * consumed; false means "not ours", so the caller's parser keeps
 * going and unknown-option errors stay per-command.
 */
bool
parseObsFlag(int argc, char **argv, int &i, ObsFlags *out,
             bool allow_quiet)
{
    const std::string a = argv[i];
    const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--trace-out") {
        if (!next)
            usageError("--trace-out needs a file path");
        out->trace_out = next;
        ++i;
        return true;
    }
    if (a == "--metrics-out") {
        if (!next)
            usageError("--metrics-out needs a file path");
        out->metrics_out = next;
        ++i;
        return true;
    }
    if (a == "--progress") {
        if (!next)
            usageError("--progress needs a mode (jsonl)");
        if (std::string(next) != "jsonl")
            usageError("unknown progress mode: " + std::string(next) +
                       " (expected jsonl)");
        out->progress_jsonl = true;
        ++i;
        return true;
    }
    if (allow_quiet && a == "--quiet") {
        out->quiet = true;
        return true;
    }
    return false;
}

/** Parse a --sym-input value: `name` or `name=lo..hi`. */
rt::SymInputSpec
parseSymInput(const char *value)
{
    if (!value)
        usageError("--sym-input needs a value");
    std::string v = value;
    rt::SymInputSpec s;
    std::size_t eq = v.find('=');
    if (eq == std::string::npos) {
        s.name = v;
    } else {
        s.name = v.substr(0, eq);
        std::string range = v.substr(eq + 1);
        std::size_t dots = range.find("..");
        if (dots == std::string::npos)
            usageError("--sym-input range must be lo..hi: " + v);
        const std::string lo = range.substr(0, dots);
        const std::string hi = range.substr(dots + 2);
        s.has_range = true;
        s.lo = parseInt("--sym-input", lo.c_str());
        s.hi = parseInt("--sym-input", hi.c_str());
        if (s.lo > s.hi)
            usageError("--sym-input: empty range: " + v);
    }
    if (s.name.empty())
        usageError("--sym-input needs an input name");
    return s;
}

/** Parse the shared option tail of `run` / `classify`. */
CliOptions
parseOptions(int argc, char **argv, int start)
{
    CliOptions cli;
    // The CLI defaults to one classification worker per hardware
    // thread (the library default stays sequential for embedders).
    cli.opts.jobs = 0;
    for (int i = start; i < argc; ++i) {
        if (parseObsFlag(argc, argv, i, &cli.obs, false))
            continue;
        std::string a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--json") {
            cli.json = true;
        } else if (a == "--stats") {
            cli.stats = true;
        } else if (a == "--no-multi-path") {
            cli.opts.multi_path = false;
        } else if (a == "--no-multi-schedule") {
            cli.opts.multi_schedule = false;
        } else if (a == "--no-adhoc") {
            cli.opts.adhoc_detection = false;
        } else if (a == "--k") {
            cli.k = parseCount("--k", next, 1);
            ++i;
        } else if (a == "--mp") {
            cli.opts.mp = parseCount("--mp", next, 1);
            ++i;
        } else if (a == "--ma") {
            cli.opts.ma = parseCount("--ma", next, 1);
            ++i;
        } else if (a == "--sym-input") {
            cli.opts.sym_inputs.push_back(parseSymInput(next));
            ++i;
        } else if (a == "--explore") {
            cli.opts.explore = parseExploreMode(next);
            ++i;
        } else if (a == "--jobs") {
            cli.opts.jobs = parseCount("--jobs", next, 1);
            ++i;
        } else if (a == "--class") {
            if (!next)
                usageError("--class needs a value");
            cli.only_class = core::raceClassFromName(next);
            if (!cli.only_class)
                usageError("unknown race class: " + std::string(next) +
                           " (paper spelling, e.g. \"spec violated\")");
            ++i;
        } else if (a == "--seed") {
            cli.opts.detection_seed = parseSeed("--seed", next);
            ++i;
        } else if (a == "--detector") {
            if (!next)
                usageError("--detector needs a value");
            std::string d = next;
            if (d == "hb")
                cli.opts.detector = core::DetectorKind::HappensBefore;
            else if (d == "hb-nomutex")
                cli.opts.detector =
                    core::DetectorKind::HappensBeforeNoMutex;
            else if (d == "lockset")
                cli.opts.detector = core::DetectorKind::Lockset;
            else
                usageError("unknown detector: " + d);
            ++i;
        } else {
            usageError("unknown option: " + a);
        }
    }
    // The Fig. 10 dial: k maps onto Mp with Ma following.
    if (cli.k > 0) {
        cli.opts.mp = cli.k;
        cli.opts.ma = cli.k >= 5 ? 2 : 1;
        cli.opts.multi_path = cli.k > 1;
        cli.opts.multi_schedule = cli.k >= 5;
    }
    return cli;
}

workloads::Workload
loadWorkload(const std::string &name)
{
    std::vector<std::string> names = workloads::workloadNames();
    for (const auto &n : workloads::extensionWorkloadNames())
        names.push_back(n);
    bool known = false;
    for (const auto &n : names)
        known = known || n == name;
    if (!known)
        usageError("unknown workload: " + name);
    return workloads::buildWorkload(name);
}

/**
 * Wrap a serialized PIL file (a corpus entry's program.pil, a user
 * program) as an ad-hoc workload so it runs through the standard
 * pipeline. Deserialization verifies the program structurally; a
 * malformed file is a usage error, never a crash.
 */
workloads::Workload
loadProgramFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        usageError("cannot open file: " + path);
    std::ostringstream os;
    os << is.rdbuf();
    std::string error;
    std::optional<ir::Program> prog =
        ir::deserializeProgram(os.str(), &error);
    if (!prog)
        usageError(path + ": " + error);
    workloads::Workload w;
    w.name = prog->name.empty() ? path : prog->name;
    w.language = "PIL";
    w.program = std::move(*prog);
    return w;
}

/** Install a workload's semantic predicates (e.g. fmm timestamps). */
void
applyWorkloadConfig(const workloads::Workload &w, core::PortendOptions &o)
{
    o.semantic_predicates = w.semantic_predicates;
}

/** Workload + pipeline result (rendering selects --class itself). */
struct PipelineRun
{
    workloads::Workload workload;
    core::PortendResult result;
};

/** The shared run/classify tail: configure and run. */
PipelineRun
runPipelineOn(workloads::Workload workload, CliOptions &cli)
{
    PipelineRun p;
    p.workload = std::move(workload);
    applyWorkloadConfig(p.workload, cli.opts);
    core::Portend tool(p.workload.program, cli.opts);
    p.result = tool.run();
    return p;
}

/** The shared run/classify preamble: load, configure, run. */
PipelineRun
runPipeline(const std::string &name, CliOptions &cli)
{
    return runPipelineOn(loadWorkload(name), cli);
}

/** The library RenderMode equivalent of the parsed flags. */
core::RenderMode
renderModeOf(const CliOptions &cli, bool classify_mode)
{
    core::RenderMode m;
    m.json = cli.json;
    m.stats = cli.stats;
    m.classify_mode = classify_mode;
    m.only_class = cli.only_class;
    return m;
}

int
cmdList()
{
    std::printf("%-10s %-8s %8s %8s %8s\n", "name", "lang", "loc",
                "threads", "races");
    std::vector<std::string> names = workloads::workloadNames();
    for (const auto &n : workloads::extensionWorkloadNames())
        names.push_back(n);
    for (const std::string &name : names) {
        workloads::Workload w = workloads::buildWorkload(name);
        std::printf("%-10s %-8s %8d %8d %8zu\n", name.c_str(),
                    w.language.c_str(), w.paper_loc, w.forked_threads,
                    w.expected.size());
    }
    return 0;
}

int
cmdRun(const std::string &name, bool classify_mode, CliOptions cli)
{
    installObsSinks(cli.obs.trace_out, cli.obs.metrics_out,
                    cli.obs.progress_jsonl, false);
    PipelineRun p = runPipeline(name, cli);
    std::fputs(core::renderPipelineReport(
                   p.workload.name, p.workload.program, p.result,
                   cli.opts.mp, cli.opts.ma,
                   renderModeOf(cli, classify_mode))
                   .c_str(),
               stdout);
    return writeObsOutputs(cli.obs.trace_out, cli.obs.metrics_out,
                           p.result.metrics);
}

/** `run --file` / `classify --file`: the pipeline over a PIL file. */
int
cmdRunFile(const std::string &path, bool classify_mode,
           CliOptions cli)
{
    installObsSinks(cli.obs.trace_out, cli.obs.metrics_out,
                    cli.obs.progress_jsonl, false);
    PipelineRun p = runPipelineOn(loadProgramFile(path), cli);
    std::fputs(core::renderPipelineReport(
                   p.workload.name, p.workload.program, p.result,
                   cli.opts.mp, cli.opts.ma,
                   renderModeOf(cli, classify_mode))
                   .c_str(),
               stdout);
    return writeObsOutputs(cli.obs.trace_out, cli.obs.metrics_out,
                           p.result.metrics);
}

/** The campaign configuration the parsed flags describe. */
campaign::CampaignConfig
campaignConfigOf(const CliOptions &cli, bool classify_mode)
{
    campaign::CampaignConfig config;
    config.analysis = cli.opts;
    config.render = renderModeOf(cli, classify_mode);
    config.units = campaign::registryUnits();
    return config;
}

/**
 * Batch mode over the full registry — a thin wrapper over the
 * campaign engine since the campaign refactor: an *ephemeral*
 * campaign (no directory, so no journal and no persistent cache)
 * whose unit fan-out, in-order merge, and rendered bytes are exactly
 * the engine's. `portend campaign run <dir>` is the same call with a
 * directory attached.
 */
int
cmdBatch(bool classify_mode, CliOptions cli)
{
    installObsSinks(cli.obs.trace_out, cli.obs.metrics_out,
                    cli.obs.progress_jsonl, false);
    campaign::Campaign engine(campaignConfigOf(cli, classify_mode));
    campaign::CampaignResult res = engine.run(-1, cli.opts.jobs);
    const int obs_rc = writeObsOutputs(
        cli.obs.trace_out, cli.obs.metrics_out, res.metrics);
    if (!res.error.empty()) {
        std::fprintf(stderr, "portend: %s\n", res.error.c_str());
        return 1;
    }
    std::fputs(res.mergedOutput(cli.json).c_str(), stdout);
    return obs_rc;
}

/** `portend campaign run|resume|status <dir>`. */
int
cmdCampaign(int argc, char **argv)
{
    if (argc < 4)
        usageError("usage: portend campaign run|resume|status <dir>");
    const std::string sub = argv[2];
    const std::string dir = argv[3];

    if (sub == "status") {
        if (argc > 4)
            usageError("campaign status takes only <dir>");
        std::string err;
        std::optional<campaign::Campaign> c =
            campaign::Campaign::open(dir, &err);
        if (!c) {
            std::fprintf(stderr, "portend: %s\n", err.c_str());
            return 2;
        }
        campaign::Campaign::Status st = c->status();
        std::printf("campaign: %s\n", dir.c_str());
        std::printf("  units: %zu/%zu complete\n", st.completed_units,
                    st.total_units);
        std::printf("  cache entries: %zu\n", st.cache_entries);
        if (st.journal_torn)
            std::printf("  journal: %d torn record(s) tolerated\n",
                        st.journal_torn);
        return st.completed_units == st.total_units ? 0 : 3;
    }
    if (sub != "run" && sub != "resume")
        usageError("unknown campaign subcommand: " + sub);

    // --abort-after is campaign-only, so it is peeled off before the
    // remaining flags reach the shared parsers.
    int abort_after = -1;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--abort-after") == 0) {
            abort_after = parseCount(
                "--abort-after",
                i + 1 < argc ? argv[i + 1] : nullptr, 0);
            ++i;
        } else {
            rest.push_back(argv[i]);
        }
    }
    const int rest_argc = static_cast<int>(rest.size());

    std::string err;
    std::optional<campaign::Campaign> c;
    CliOptions cli;
    if (sub == "run") {
        cli = parseOptions(rest_argc, rest.data(), 1);
        c = campaign::Campaign::create(
            dir, campaignConfigOf(cli, true), &err);
    } else {
        // Resume takes no analysis flags: the manifest is the only
        // source of configuration, so a resumed campaign can never
        // drift from the run that started it.
        cli.opts.jobs = 0;
        for (int i = 1; i < rest_argc; ++i) {
            if (parseObsFlag(rest_argc, rest.data(), i, &cli.obs,
                             false))
                continue;
            if (std::strcmp(rest[i], "--jobs") == 0) {
                cli.opts.jobs = parseCount(
                    "--jobs",
                    i + 1 < rest_argc ? rest[i + 1] : nullptr, 1);
                ++i;
            } else {
                usageError("unknown campaign resume option: " +
                           std::string(rest[i]));
            }
        }
        c = campaign::Campaign::open(dir, &err);
    }
    if (!c) {
        std::fprintf(stderr, "portend: %s\n", err.c_str());
        return 2;
    }

    installObsSinks(cli.obs.trace_out, cli.obs.metrics_out,
                    cli.obs.progress_jsonl, false);
    campaign::CampaignResult res = c->run(abort_after, cli.opts.jobs);
    const int obs_rc = writeObsOutputs(
        cli.obs.trace_out, cli.obs.metrics_out, res.metrics);
    if (!res.error.empty()) {
        std::fprintf(stderr, "portend: %s\n", res.error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "campaign: %zu unit(s): %d executed, %d cache "
                 "hit(s), %d resumed from journal\n",
                 res.units.size(), res.executed, res.cache_hits,
                 res.resume_skips);
    if (res.aborted) {
        std::fprintf(stderr,
                     "campaign: aborted by --abort-after; resume "
                     "with `portend campaign resume %s`\n",
                     dir.c_str());
        return 3;
    }
    std::fputs(res.mergedOutput(c->config().render.json).c_str(),
               stdout);
    return obs_rc;
}

/**
 * `portend fuzz`: run a campaign. The deterministic summary goes to
 * stdout (acceptance diffs it byte-for-byte between runs); the
 * wall-clock line goes to stderr so timing never breaks determinism.
 */
int
cmdFuzz(int argc, char **argv)
{
    fuzz::FuzzOptions fo;
    fo.jobs = 0; // CLI default: one worker per hardware thread
    bool budget_given = false;
    ObsFlags obs;
    for (int i = 2; i < argc; ++i) {
        if (parseObsFlag(argc, argv, i, &obs, true))
            continue;
        std::string a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--budget") {
            fo.budget = parseCount("--budget", next, 1);
            budget_given = true;
            ++i;
        } else if (a == "--seconds") {
            fo.seconds = static_cast<double>(
                parseCount("--seconds", next, 1));
            ++i;
        } else if (a == "--fuzz-seed") {
            fo.fuzz_seed = parseSeed("--fuzz-seed", next);
            ++i;
        } else if (a == "--seed") {
            fo.detection_seed = parseSeed("--seed", next);
            ++i;
        } else if (a == "--jobs") {
            fo.jobs = parseCount("--jobs", next, 1);
            ++i;
        } else if (a == "--corpus") {
            if (!next)
                usageError("--corpus needs a directory");
            fo.corpus_dir = next;
            ++i;
        } else if (a == "--campaign") {
            if (!next)
                usageError("--campaign needs a directory");
            fo.campaign_dir = next;
            ++i;
        } else {
            usageError("unknown fuzz option: " + a);
        }
    }
    if (budget_given && fo.seconds > 0)
        usageError("--budget and --seconds are mutually exclusive");

    // The collector is always on for fuzz (the end-of-run summary
    // reads it); the campaign summary on stdout stays byte-stable, so
    // the metrics line joins the wall-clock line on stderr.
    installObsSinks(obs.trace_out, obs.metrics_out,
                    obs.progress_jsonl, true);
    fuzz::FuzzResult res = fuzz::runFuzz(fo);
    std::fputs(res.summaryText().c_str(), stdout);

    obs::MetricsShard m;
    g_collector.drainInto(m);
    if (!obs.quiet) {
        std::fprintf(
            stderr,
            "metrics: fuzz.programs=%llu fuzz.flagged=%llu "
            "interp.runs=%llu interp.steps=%llu "
            "sym.solver_queries=%llu\n",
            static_cast<unsigned long long>(
                m.counter(obs::Counter::FuzzPrograms)),
            static_cast<unsigned long long>(
                m.counter(obs::Counter::FuzzFlagged)),
            static_cast<unsigned long long>(
                m.counter(obs::Counter::InterpRuns)),
            static_cast<unsigned long long>(
                m.counter(obs::Counter::InterpSteps)),
            static_cast<unsigned long long>(
                m.counter(obs::Counter::SolverQueries)));
    }
    const int obs_rc =
        writeObsOutputs(obs.trace_out, obs.metrics_out, res.metrics);
    std::fprintf(stderr, "wall-clock: %.2fs (%d jobs)\n", res.seconds,
                 ThreadPool::resolveJobs(fo.jobs));
    if (obs_rc != 0)
        return obs_rc;
    return res.clean() ? 0 : 1;
}

/** `portend corpus run <dir>`: replay a reproducer corpus. */
int
cmdCorpusRun(const std::string &dir, fuzz::OracleOptions opts,
             const ObsFlags &obs_flags)
{
    const bool quiet = obs_flags.quiet;
    // Collector on by default: the one-line summary below is the
    // corpus counterpart of the fuzz metrics line (stderr, so the
    // PASS/FAIL stdout stays byte-stable).
    installObsSinks(obs_flags.trace_out, obs_flags.metrics_out,
                    obs_flags.progress_jsonl, true);
    fuzz::CorpusRunResult res = fuzz::runCorpus(dir, opts);
    if (res.total == 0) {
        std::fprintf(stderr,
                     "portend: no corpus entries under %s\n",
                     dir.c_str());
        return 2;
    }
    for (const fuzz::ReplayOutcome &o : res.outcomes) {
        if (o.ok)
            std::printf("PASS %s\n", o.name.c_str());
        else
            std::printf("FAIL %s: %s\n", o.name.c_str(),
                        o.detail.c_str());
    }
    std::printf("corpus: %d/%d green\n", res.passed, res.total);
    obs::MetricsShard corpus_shard = res.metrics;
    corpus_shard.add(obs::Counter::CorpusEntries,
                     static_cast<std::uint64_t>(res.total));
    corpus_shard.add(obs::Counter::CorpusPassed,
                     static_cast<std::uint64_t>(res.passed));
    corpus_shard.add(obs::Counter::CorpusFailed,
                     static_cast<std::uint64_t>(res.total - res.passed));
    if (!quiet) {
        obs::MetricsShard m = corpus_shard;
        g_collector.drainInto(m);
        std::fprintf(
            stderr,
            "metrics: corpus.entries=%llu corpus.passed=%llu "
            "corpus.failed=%llu interp.runs=%llu interp.steps=%llu\n",
            static_cast<unsigned long long>(
                m.counter(obs::Counter::CorpusEntries)),
            static_cast<unsigned long long>(
                m.counter(obs::Counter::CorpusPassed)),
            static_cast<unsigned long long>(
                m.counter(obs::Counter::CorpusFailed)),
            static_cast<unsigned long long>(
                m.counter(obs::Counter::InterpRuns)),
            static_cast<unsigned long long>(
                m.counter(obs::Counter::InterpSteps)));
    }
    const int obs_rc = writeObsOutputs(
        obs_flags.trace_out, obs_flags.metrics_out, corpus_shard);
    if (obs_rc != 0)
        return obs_rc;
    return res.allGreen() ? 0 : 1;
}

/**
 * Strip a leading `--dispatch <mode>` pair (valid before any
 * command) and install the mode process-wide, so every interpreter
 * the pipeline spawns — detection, replay, alternate schedules,
 * symbolic exploration — uses the same loop.
 */
void
applyDispatchFlag(int &argc, char **argv)
{
    if (argc < 3 || std::strcmp(argv[1], "--dispatch") != 0)
        return;
    const std::string mode = argv[2];
    if (mode == "auto") {
        rt::setDefaultDispatchMode(rt::DispatchMode::Auto);
    } else if (mode == "switch") {
        rt::setDefaultDispatchMode(rt::DispatchMode::Switch);
    } else if (mode == "threaded") {
        // Fail loudly: a CI lane asking for the threaded loop must
        // not silently measure the switch fallback.
        if (!rt::threadedDispatchAvailable())
            usageError("--dispatch threaded: computed-goto dispatch "
                       "not compiled in on this toolchain");
        rt::setDefaultDispatchMode(rt::DispatchMode::Threaded);
    } else {
        usageError("unknown dispatch mode: " + mode +
                   " (expected switch, threaded, or auto)");
    }
    for (int i = 3; i <= argc; ++i)
        argv[i - 2] = argv[i]; // includes the trailing nullptr
    argc -= 2;
}

} // namespace

int
main(int argc, char **argv)
{
    applyDispatchFlag(argc, argv);
    if (argc < 2) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        std::fputs(kUsage, stdout);
        return 0;
    }
    if (cmd == "list") {
        if (argc > 2)
            usageError("list takes no arguments");
        return cmdList();
    }
    if (cmd == "run" || cmd == "classify") {
        const bool classify_mode = cmd == "classify";
        if (argc >= 3 && std::strcmp(argv[2], "--all") == 0) {
            CliOptions cli = parseOptions(argc, argv, 3);
            return cmdBatch(classify_mode, cli);
        }
        if (argc >= 3 && std::strcmp(argv[2], "--file") == 0) {
            if (argc < 4 || argv[3][0] == '-')
                usageError("--file needs a path to a .pil program");
            CliOptions cli = parseOptions(argc, argv, 4);
            return cmdRunFile(argv[3], classify_mode, cli);
        }
        if (argc < 3 || argv[2][0] == '-')
            usageError(cmd +
                       " needs a workload name (or --all, --file)");
        CliOptions cli = parseOptions(argc, argv, 3);
        return cmdRun(argv[2], classify_mode, cli);
    }
    if (cmd == "campaign")
        return cmdCampaign(argc, argv);
    if (cmd == "fuzz")
        return cmdFuzz(argc, argv);
    if (cmd == "corpus") {
        if (argc < 4 || std::strcmp(argv[2], "run") != 0)
            usageError("usage: portend corpus run <dir>");
        fuzz::OracleOptions opts;
        ObsFlags obs_flags;
        for (int i = 4; i < argc; ++i) {
            if (parseObsFlag(argc, argv, i, &obs_flags, true))
                continue;
            std::string a = argv[i];
            if (a == "--explore") {
                opts.explore = parseExploreMode(
                    i + 1 < argc ? argv[i + 1] : nullptr);
                ++i;
            } else {
                usageError("unknown corpus option: " + a);
            }
        }
        return cmdCorpusRun(argv[3], opts, obs_flags);
    }
    usageError("unknown command: " + cmd);
}
