/**
 * @file
 * Benchmark driver: runs one workload in this process and prints its
 * measurements as one JSON line on stdout. run.py starts it once per
 * measurement and turns the lines into the benchmark's result.
 *
 *   perfbench_driver --workload registry|fuzz|campaign --seed N
 *                    --seconds S --mode timed|setup|traced
 *                    --root <checkout> --work <scratch dir>
 *                    [--spans-out <file>]
 *
 * Every workload is a fixed list of ops (a *round*). After set-up the
 * driver runs whole rounds, one op at a time (one closed-loop client,
 * one classification worker), until S seconds have passed, and checks
 * every op's output once its timer has stopped.
 *
 * Modes:
 *   timed   end-to-end numbers: each op calls the public entry point a
 *           user calls (Portend::run, fuzz::runOracle, Campaign::run)
 *   setup   set-up only: one more set-up sample for the median
 *   traced  each op runs through the decomposed public calls (detect,
 *           staticInfo, ladder build, classify per cluster, render)
 *           with a span around each; prints per-layer numbers and the
 *           counts of the first round (with S = 0, exactly one round:
 *           run.py compares two such runs' counts for the determinism
 *           check)
 *
 * Layers are timed from outside only: spans wrap calls into each
 * module's public functions, never code inside them.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>

#include "campaign/campaign.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "portend/portend.h"
#include "portend/render.h"
#include "portend/scheduler.h"
#include "replay/checkpoint.h"
#include "support/observe.h"
#include "workloads/registry.h"

namespace fs = std::filesystem;
using namespace portend;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
    std::exit(2);
}

/** splitmix64: the benchmark's own generator, so its inputs do not
 *  move when the program's RNG changes. */
class SeededRng
{
  public:
    explicit SeededRng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    std::uint64_t state;
};

// ---------------------------------------------------------------------
// Spans and counts
// ---------------------------------------------------------------------

/** In-memory span recorder: name, parent, start, end. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int parent;
        double start_ms;
        double end_ms;
    };

    int
    open(const char *name)
    {
        const int idx = static_cast<int>(spans_.size());
        spans_.push_back({name, stack_.empty() ? -1 : stack_.back(),
                          msSince(t0_), 0.0});
        stack_.push_back(idx);
        return idx;
    }

    void
    close()
    {
        spans_[static_cast<std::size_t>(stack_.back())].end_ms =
            msSince(t0_);
        stack_.pop_back();
    }

    double
    durationMs(int idx) const
    {
        const Span &s = spans_[static_cast<std::size_t>(idx)];
        return s.end_ms - s.start_ms;
    }

    std::size_t size() const { return spans_.size(); }

    /** Summed duration of the layer spans opened at or after @p mark
     *  (the calls decomposedPipeline makes). */
    double
    layerMsSince(std::size_t mark) const
    {
        static const char *const kLayers[] = {"detect", "static",
                                              "ladder", "classify",
                                              "render"};
        double total = 0.0;
        for (std::size_t i = mark; i < spans_.size(); ++i) {
            for (const char *name : kLayers) {
                if (std::strcmp(spans_[i].name, name) == 0)
                    total += spans_[i].end_ms - spans_[i].start_ms;
            }
        }
        return total;
    }

    /** Self time (duration minus direct children) summed by name. */
    std::map<std::string, double>
    selfTotals() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end_ms - spans_[i].start_ms;
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -=
                    s.end_ms - s.start_ms;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += self[i];
        return out;
    }

    /** Durations of every span called @p name. */
    std::vector<double>
    durations(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (std::strcmp(s.name, name) == 0)
                out.push_back(s.end_ms - s.start_ms);
        }
        return out;
    }

    /** Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[192];
            std::snprintf(buf, sizeof buf,
                          "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                          s.name, s.start_ms * 1000.0,
                          (s.end_ms - s.start_ms) * 1000.0);
            os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]}\n";
    }

  private:
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : t_(t), idx_(t ? t->open(name) : -1)
    {}
    ~Scope()
    {
        if (t_)
            t_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Close early (the destructor then does nothing); returns the
     *  span's duration in ms. */
    double
    end()
    {
        if (!t_)
            return 0.0;
        t_->close();
        const double ms = t_->durationMs(idx_);
        t_ = nullptr;
        return ms;
    }

  private:
    Tracer *t_;
    int idx_;
};

/** Per-layer counts of one round, from the structs calls return. */
struct Ledger
{
    std::map<std::string, std::uint64_t> sums;
    std::map<std::string, std::uint64_t> maxes;

    void add(const char *k, std::uint64_t v) { sums[k] += v; }
    void
    max(const char *k, std::uint64_t v)
    {
        maxes[k] = std::max(maxes[k], v);
    }
};

/** Counts cover the first round only; later rounds pass no ledger. */
void
count(Ledger *l, const char *k, std::uint64_t v)
{
    if (l)
        l->add(k, v);
}

/**
 * interp.* counts of one call of the program's own entry point, read
 * from the process-wide obs::Collector (installed by the traced run)
 * right before and right after it. Work the traced run adds beside the
 * call, such as a second, decomposed pipeline, is therefore not counted.
 */
class InterpScope
{
  public:
    explicit InterpScope(Ledger *l) : l_(l)
    {
        if (l_)
            before_ = read();
    }
    ~InterpScope()
    {
        if (!l_)
            return;
        const obs::MetricsShard after = read();
        for (const obs::Counter c :
             {obs::Counter::InterpRuns, obs::Counter::InterpSteps})
            count(l_, obs::counterName(c),
                  after.counter(c) - before_.counter(c));
    }
    InterpScope(const InterpScope &) = delete;
    InterpScope &operator=(const InterpScope &) = delete;

  private:
    static obs::MetricsShard
    read()
    {
        obs::MetricsShard s;
        if (const obs::Collector *c = obs::collector())
            c->drainInto(s);
        return s;
    }

    Ledger *l_;
    obs::MetricsShard before_;
};

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/** Nearest-rank percentile of sorted @p v. */
double
percentile(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(pct / 100.0 * sorted.size());
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
    return sorted[idx - 1];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return percentile(v, 50);
}

struct Tail
{
    double pct = 50.0;
    double value = 0.0;
    std::size_t beyond = 0; ///< samples above the percentile's rank
};

/**
 * The highest percentile of a fixed ladder, up to @p cap, that still
 * has at least ten samples beyond it. The cap keeps the percentile
 * the same from run to run (and commit to commit) on one machine.
 */
Tail
tailOf(std::vector<double> v, double cap)
{
    static const double kLadder[] = {50, 75, 90, 95, 99, 99.75, 99.9};
    std::sort(v.begin(), v.end());
    Tail t;
    for (double p : kLadder) {
        if (p > cap)
            break;
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(v.size())));
        const std::size_t beyond = v.size() - std::min(rank, v.size());
        if (beyond < 10 && p > 50)
            break;
        t.pct = p;
        t.beyond = beyond;
        t.value = percentile(v, p);
    }
    return t;
}

// ---------------------------------------------------------------------
// The decomposed pipeline: Portend::run() as its public parts
// ---------------------------------------------------------------------

/**
 * detect -> staticInfo -> ladder build -> classify per cluster ->
 * render, exactly as ClassificationScheduler composes them at jobs=1,
 * with one span per call. @p rendered receives renderPipelineReport's
 * bytes under @p mode.
 */
core::PortendResult
decomposedPipeline(const std::string &name, const ir::Program &prog,
                   const core::PortendOptions &opts,
                   const core::RenderMode &mode, Tracer &t, Ledger *l,
                   std::string *rendered)
{
    core::Portend tool(prog, opts);
    core::PortendResult res;
    {
        Scope s(&t, "detect");
        res.detection = tool.detect();
    }
    const std::vector<race::RaceCluster> &clusters =
        res.detection.clusters;
    count(l, "detect.calls", 1);
    count(l, "detect.steps", res.detection.steps);
    count(l, "detect.clusters", clusters.size());

    if (!clusters.empty()) {
        const rt::StaticInfo *info = nullptr;
        {
            Scope s(&t, "static");
            info = &tool.staticInfo();
        }
        std::optional<replay::CheckpointLadder> ladder;
        {
            Scope s(&t, "ladder");
            ladder.emplace(replay::CheckpointLadder::build(
                prog, res.detection.trace,
                replay::CheckpointLadder::targetsFor(clusters),
                core::RaceAnalyzer::replayOptions(opts),
                opts.semantic_predicates));
        }
        count(l, "ladder.rungs", ladder->size());
        count(l, "ladder.build_steps", ladder->buildSteps());
        count(l, "ladder.covered_steps", ladder->prefixStepsCovered());

        const core::ClassificationScheduler sched(prog, opts, *info);
        res.reports.resize(clusters.size());
        for (std::size_t i = 0; i < clusters.size(); ++i) {
            core::PortendReport &rep = res.reports[i];
            rep.cluster = clusters[i];
            {
                Scope s(&t, "classify");
                const core::RaceAnalyzer analyzer(
                    prog, sched.taskOptions(clusters.size(), i), *info);
                rep.classification = analyzer.classify(
                    clusters[i].representative, res.detection.trace,
                    &*ladder);
            }
            const core::AnalysisStats &st = rep.classification.stats;
            count(l, "classify.calls", 1);
            count(l, "classify.steps", st.steps);
            if (l)
                l->max("classify.steps_max", st.steps);
            count(l, "explore.schedules",
                  static_cast<std::uint64_t>(st.schedules_explored));
            count(l, "explore.distinct",
                  static_cast<std::uint64_t>(st.distinct_schedules));
            count(l, "sym.paths",
                  static_cast<std::uint64_t>(st.paths_explored));
            count(l, "sym.states",
                  static_cast<std::uint64_t>(st.states_created));
            count(l, "sym.solver_queries", st.solver_queries);
        }
    }
    {
        Scope s(&t, "render");
        *rendered = core::renderPipelineReport(name, prog, res, opts.mp,
                                               opts.ma, mode);
    }
    count(l, "render.bytes", rendered->size());
    return res;
}

/** `classify <w> --json`: the golden files' render mode. */
core::RenderMode
classifyJsonMode()
{
    core::RenderMode m;
    m.json = true;
    m.classify_mode = true;
    return m;
}

/** Analysis options of one registry workload (jobs = 1). */
core::PortendOptions
workloadOptions(const workloads::Workload &w)
{
    core::PortendOptions o;
    o.jobs = 1;
    o.semantic_predicates = w.semantic_predicates;
    return o;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs and run the warm-up round (set-up time). */
    virtual void setup() = 0;

    /** Untimed work once after set-up: checker references and
     *  once-per-run checks; "" when they hold. */
    virtual std::string prepareChecks() { return ""; }

    virtual std::size_t roundSize() const = 0;

    /** Start a new round (untimed): reorder ops, etc. */
    virtual void beginRound() {}

    /** Untimed preparation before op @p i. */
    virtual void prepare(std::size_t) {}

    /** Op @p i of the round, through the user-facing entry point. */
    virtual void run(std::size_t i) = 0;

    /** Op @p i through the decomposed public calls, with spans. */
    virtual void trace(std::size_t i, Tracer &t, Ledger *l) = 0;

    /** Check the op just run; "" when its output is correct. */
    virtual std::string check(std::size_t i) = 0;

    /** Check a completed round; "" when correct. */
    virtual std::string checkRound() { return ""; }

    /** Per-layer numbers only this workload has (traced mode). */
    virtual void
    layerMetrics(std::map<std::string, double> &, std::size_t)
    {}
};

/** Table 3 accounting of one workload's reports against ground
 *  truth (matched by cell, each truth entry used once). */
std::pair<int, int>
table3(const workloads::Workload &w,
       const std::vector<core::PortendReport> &reports)
{
    std::multimap<std::string, const workloads::ExpectedRace *> pool;
    for (const workloads::ExpectedRace &e : w.expected)
        pool.insert({e.cell, &e});
    int distinct = 0, correct = 0;
    for (const core::PortendReport &r : reports) {
        ++distinct;
        auto it = pool.find(
            w.program.cellName(r.cluster.representative.cell));
        if (it == pool.end())
            continue;
        if (r.classification.cls == it->second->truth)
            ++correct;
        pool.erase(it);
    }
    return {distinct, correct};
}

std::string
readFile(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    if (!is)
        die("cannot read " + p.string());
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/**
 * registry: op = one Table 1 workload's full pipeline plus the
 * `classify <w> --json` rendering. Checks: golden bytes per op, Table
 * 3's 93 distinct / 92 correct per round.
 */
class RegistryWorkload : public Workload
{
  public:
    RegistryWorkload(std::uint64_t seed, fs::path root)
        : rng(seed), root(std::move(root))
    {}

    void
    setup() override
    {
        for (const std::string &n : workloads::workloadNames())
            suite.push_back(workloads::buildWorkload(n));
        order.resize(suite.size());
        for (std::size_t i = 0; i < suite.size(); ++i) {
            order[i] = i;
            run(i);
        }
    }

    std::string
    prepareChecks() override
    {
        for (const std::string &n : workloads::workloadNames())
            goldens.push_back(
                readFile(root / "tests" / "golden" / (n + ".json")));
        return checkTable3();
    }

    std::size_t roundSize() const override { return suite.size(); }

    void
    beginRound() override
    {
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        rng.shuffle(order);
        distinct = 0;
    }

    void
    run(std::size_t i) override
    {
        const workloads::Workload &w = suite[order[i]];
        const core::PortendOptions opts = workloadOptions(w);
        core::Portend tool(w.program, opts);
        last = tool.run();
        bytes = core::renderPipelineReport(w.name, w.program, last,
                                           opts.mp, opts.ma,
                                           classifyJsonMode());
    }

    void
    trace(std::size_t i, Tracer &t, Ledger *l) override
    {
        const workloads::Workload &w = suite[order[i]];
        const InterpScope interp(l);
        last = decomposedPipeline(w.name, w.program, workloadOptions(w),
                                  classifyJsonMode(), t, l, &bytes);
    }

    std::string
    check(std::size_t i) override
    {
        const std::size_t w = order[i];
        distinct += static_cast<int>(last.reports.size());
        if (bytes != goldens[w])
            return workloads::workloadNames()[w] +
                   ": bytes differ from tests/golden";
        return "";
    }

    std::string
    checkRound() override
    {
        if (distinct != 93)
            return "round found " + std::to_string(distinct) +
                   " distinct races (want 93)";
        return "";
    }

    /**
     * Table 3's count, 92 of 93 classified correctly. Table 3 is
     * scored without the semantic predicates (the fmm timestamp race
     * is "spec violated" only under Table 2's predicate, which
     * `classify --json` applies), so this runs the suite once at the
     * paper's default dials instead of scoring the timed ops.
     */
    std::string
    checkTable3()
    {
        int all = 0, correct = 0;
        for (const workloads::Workload &w : suite) {
            core::PortendOptions opts;
            opts.jobs = 1;
            core::Portend tool(w.program, opts);
            const auto [d, c] = table3(w, tool.run().reports);
            all += d;
            correct += c;
        }
        if (all != 93 || correct != 92)
            return "Table 3: " + std::to_string(all) + " distinct, " +
                   std::to_string(correct) + " correct (want 93, 92)";
        return "";
    }

  private:
    SeededRng rng;
    fs::path root;
    std::vector<workloads::Workload> suite;
    std::vector<std::string> goldens;
    std::vector<std::size_t> order;
    core::PortendResult last;
    std::string bytes;
    int distinct = 0;
};

/**
 * fuzz: op = generate one program and run the differential oracle on
 * it, deep on every 4th index as `portend fuzz` does. The programs are
 * the headline fuzz run's (generation seed 42, indices 0..199); the
 * benchmark seed orders them. Check: the oracle flags nothing.
 */
class FuzzWorkload : public Workload
{
  public:
    static constexpr std::uint64_t kGenerationSeed = 42;
    static constexpr std::size_t kPrograms = 200;
    static constexpr std::uint64_t kDeepEvery = 4;

    explicit FuzzWorkload(std::uint64_t seed) : rng(seed) {}

    void
    setup() override
    {
        order.resize(kPrograms);
        for (std::size_t i = 0; i < kPrograms; ++i) {
            order[i] = i;
            run(i);
        }
    }

    std::size_t roundSize() const override { return kPrograms; }

    void
    beginRound() override
    {
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        rng.shuffle(order);
    }

    static fuzz::OracleOptions
    oracleOptions(std::uint64_t index)
    {
        fuzz::OracleOptions o;
        o.deep = index % kDeepEvery == 0;
        return o;
    }

    /** The oracle's primary-pipeline dials (see fuzz/oracle.cc). */
    static core::PortendOptions
    pipelineOptions(const fuzz::OracleOptions &o)
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

    void
    run(std::size_t i) override
    {
        const std::uint64_t index = order[i];
        fuzz::GeneratedProgram gen = fuzz::generateProgram(
            kGenerationSeed, index, fuzz::GeneratorOptions{});
        verify_errors = gen.verify_errors.size();
        verdict = verify_errors ? fuzz::OracleVerdict{}
                                : fuzz::runOracle(gen.program,
                                                  oracleOptions(index));
        decomposed_text.reset();
    }

    void
    trace(std::size_t i, Tracer &t, Ledger *l) override
    {
        const std::uint64_t index = order[i];
        std::optional<fuzz::GeneratedProgram> gen;
        {
            Scope s(&t, "generate");
            gen.emplace(fuzz::generateProgram(kGenerationSeed, index,
                                              fuzz::GeneratorOptions{}));
        }
        verify_errors = gen->verify_errors.size();
        decomposed_text.reset();
        if (verify_errors) {
            verdict = fuzz::OracleVerdict{};
            return;
        }
        const fuzz::OracleOptions o = oracleOptions(index);
        {
            Scope s(&t, "oracle");
            const InterpScope interp(l);
            verdict = fuzz::runOracle(gen->program, o);
        }
        count(l, "fuzz.checks", verdict.checks.size());

        std::string rendered;
        core::PortendResult res;
        {
            Scope s(&t, "pipeline");
            res = decomposedPipeline(gen->program.name, gen->program,
                                     pipelineOptions(o),
                                     core::RenderMode{}, t, l,
                                     &rendered);
        }
        // The oracle's report_text is Portend::run()'s Fig. 6 text.
        std::string text;
        for (const core::PortendReport &r : res.reports)
            text += core::formatReport(gen->program, r);
        decomposed_text = std::move(text);
    }

    std::string
    check(std::size_t i) override
    {
        const std::string id = "fuzz program " + std::to_string(order[i]);
        if (verify_errors)
            return id + ": generator emitted an invalid program";
        if (verdict.flagged())
            return id + ": oracle flagged " + verdict.firstFailure();
        if (decomposed_text && *decomposed_text != verdict.report_text)
            return id + ": decomposed pipeline differs from run()";
        return "";
    }

  private:
    SeededRng rng;
    std::vector<std::size_t> order;
    std::size_t verify_errors = 0;
    fuzz::OracleVerdict verdict;
    std::optional<std::string> decomposed_text;
};

/** Bytes of every regular file under @p dir. */
std::uint64_t
diskBytes(const fs::path &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec)) {
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    }
    return total;
}

/**
 * campaign: op = one Campaign::run() pass over registryUnits() in a
 * fresh campaign directory, all passes sharing one on-disk verdict
 * cache; before each pass a seeded half of the cache entries is
 * deleted. Check: merged bytes equal an ephemeral campaign's.
 */
class CampaignWorkload : public Workload
{
  public:
    CampaignWorkload(std::uint64_t seed, fs::path work)
        : rng(seed), work(std::move(work))
    {
        config.analysis.jobs = 1;
        config.render = classifyJsonMode();
        config.units = campaign::registryUnits();
    }

    ~CampaignWorkload() override
    {
        std::error_code ec;
        fs::remove_all(work, ec);
    }

    void
    setup() override
    {
        std::error_code ec;
        fs::remove_all(work, ec);
        fs::create_directories(work / "cache");
        // The cold prefill: every unit misses and is stored.
        run(0);
        removePassDir();
    }

    std::string
    prepareChecks() override
    {
        campaign::Campaign ephemeral(config);
        reference = ephemeral.run(-1, 1).mergedOutput(true);
        return "";
    }

    std::size_t roundSize() const override { return 1; }

    void
    prepare(std::size_t) override
    {
        std::vector<fs::path> entries;
        for (const auto &e : fs::directory_iterator(work / "cache")) {
            if (e.path().extension() == ".entry")
                entries.push_back(e.path());
        }
        std::sort(entries.begin(), entries.end());
        rng.shuffle(entries);
        for (std::size_t i = 0; i < entries.size() / 2; ++i)
            fs::remove(entries[i]);
    }

    void
    run(std::size_t) override
    {
        const fs::path dir = work / ("pass-" + std::to_string(passes++));
        std::string error;
        std::optional<campaign::Campaign> c = campaign::Campaign::create(
            dir.string(), config, &error, (work / "cache").string());
        if (!c) {
            result = campaign::CampaignResult{};
            result.error = "create: " + error;
            return;
        }
        result = c->run(-1, 1);
        merged = result.mergedOutput(true);
    }

    void
    trace(std::size_t i, Tracer &t, Ledger *l) override
    {
        Scope pass(&t, "pass");
        {
            const InterpScope interp(l);
            run(i);
        }
        const double pass_ms = pass.end();
        count(l, "campaign.units", result.units.size());
        count(l, "campaign.executed",
              static_cast<std::uint64_t>(result.executed));
        count(l, "campaign.cache_hits",
              static_cast<std::uint64_t>(result.cache_hits));
        if (l)
            l->add("campaign.disk_bytes", diskBytes(work));

        // The same units through the decomposed calls: detection for
        // every unit, the rest only where the pass classified. What
        // the pass spent beyond them is the campaign layer's own time.
        const std::size_t mark = t.size();
        decomposed_ok = true;
        for (const campaign::UnitResult &u : result.units) {
            const workloads::Workload w =
                workloads::buildWorkload(u.spec.name);
            const core::PortendOptions opts = workloadOptions(w);
            if (u.source == campaign::UnitSource::Executed) {
                std::string rendered;
                decomposedPipeline(w.name, w.program, opts,
                                   config.render, t, l, &rendered);
                decomposed_ok = decomposed_ok && rendered == u.rendered;
            } else {
                core::Portend tool(w.program, opts);
                Scope s(&t, "detect");
                const core::DetectionResult det = tool.detect();
                s.end();
                count(l, "detect.calls", 1);
                count(l, "detect.steps", det.steps);
                count(l, "detect.clusters", det.clusters.size());
            }
        }
        self_ms += pass_ms - t.layerMsSince(mark);
    }

    void
    layerMetrics(std::map<std::string, double> &m,
                 std::size_t ops) override
    {
        m["campaign.self_ms"] = self_ms / static_cast<double>(ops);
    }

    std::string
    check(std::size_t) override
    {
        removePassDir();
        if (!result.error.empty())
            return "campaign: " + result.error;
        if (!result.complete())
            return "campaign: pass left units pending";
        if (merged != reference)
            return "campaign: merged bytes differ from an ephemeral "
                   "campaign's";
        if (!decomposed_ok)
            return "campaign: decomposed render differs from the pass";
        return "";
    }

  private:
    void
    removePassDir()
    {
        std::error_code ec;
        fs::remove_all(work / ("pass-" + std::to_string(passes - 1)), ec);
    }

    SeededRng rng;
    fs::path work;
    campaign::CampaignConfig config;
    std::string reference;
    std::size_t passes = 0;
    campaign::CampaignResult result;
    std::string merged;
    bool decomposed_ok = true;
    double self_ms = 0.0; ///< pass time beyond the decomposed layers
};

/** A fixed CPU-bound kernel (a toy bytecode loop with map and
 *  allocation traffic) that depends on nothing in the program. */
std::uint64_t
probeKernel(int iterations)
{
    std::uint64_t h = 1469598103934665603ull;
    std::vector<std::uint32_t> code(2048);
    for (std::size_t k = 0; k < code.size(); ++k)
        code[k] = static_cast<std::uint32_t>((k * 2654435761u) >> 7);
    std::map<std::uint64_t, std::uint64_t> table;
    std::vector<std::uint64_t> regs(64, 1);
    for (int it = 0; it < iterations; ++it) {
        for (const std::uint32_t ins : code) {
            switch (ins & 7) {
              case 0: regs[ins >> 26] += regs[(ins >> 20) & 63]; break;
              case 1: regs[ins >> 26] ^= h; break;
              case 2: h = (h ^ regs[(ins >> 14) & 63]) * 1099511628211ull; break;
              case 3: table[h & 4095] += 1; break;
              case 4: {
                auto f = table.find(regs[3] & 4095);
                if (f != table.end())
                    h += f->second;
                break;
              }
              case 5: {
                std::vector<std::uint64_t> tmp(16 + (ins & 63), h);
                h += tmp.back();
                break;
              }
              default: regs[(ins >> 8) & 63] = h >> (ins & 31); break;
            }
        }
    }
    return h;
}

/** How often (between rounds) the driver reads the host's speed. */
constexpr double kProbeEveryMs = 500.0;

/**
 * Read the host's speed: time the probe kernel on each CPU this process
 * may use, pinned there for the probe only, and return the mean over
 * the CPUs. The affinity mask the process started with is restored
 * before it returns, so the ops run wherever the kernel places them
 * (the oracle's jobs = 2 check keeps its two workers on two CPUs), and
 * the mean is the speed an unpinned thread can expect. On a shared
 * host, neighbours slow some CPUs more than others, and the slowdown
 * moves; the readings track it.
 */
double
probeHostMs()
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof set, &set);
        return set;
    }();
    static volatile std::uint64_t sink = 0;
    double total_ms = 0.0;
    int cpus = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0)
            continue;
        double ms = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            const Clock::time_point t0 = Clock::now();
            sink = sink + probeKernel(8);
            ms = std::min(ms, msSince(t0));
        }
        total_ms += ms;
        ++cpus;
    }
    if (sched_setaffinity(0, sizeof allowed, &allowed) != 0)
        die("cannot restore the process's CPU affinity");
    if (cpus == 0)
        die("cannot run the host probe on any CPU");
    return total_ms / cpus;
}

/** Command-line arguments (see the file comment). */
struct Args
{
    std::string workload;
    std::string mode = "timed";
    std::uint64_t seed = 1;
    double seconds = 10.0;
    fs::path root = ".";
    fs::path work = "perfbench-work";
    std::string spans_out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--mode")
            a.mode = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--root")
            a.root = v;
        else if (k == "--work")
            a.work = v;
        else if (k == "--spans-out")
            a.spans_out = v;
        else
            die("unknown option " + k);
    }
    if (a.mode != "timed" && a.mode != "setup" && a.mode != "traced")
        die("unknown mode " + a.mode);
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "registry")
        return std::make_unique<RegistryWorkload>(a.seed, a.root);
    if (a.workload == "fuzz")
        return std::make_unique<FuzzWorkload>(a.seed);
    if (a.workload == "campaign")
        return std::make_unique<CampaignWorkload>(a.seed,
                                                  a.work / "campaign");
    die("unknown workload " + a.workload);
}

/**
 * The op-tail percentile cap per workload. A round repeats the same
 * ops, so a percentile whose share beyond it is a whole number of ops
 * per round falls on the border between two ops and reads the noisy
 * maximum of the lighter one. The caps sit inside one op's samples:
 * registry p99 inside the heaviest workload (pbzip2), fuzz p99.75
 * inside the heavier of its two runaway-alternate programs (the
 * budget item's tail), campaign p95 (every pass differs).
 */
double
tailCap(const std::string &workload)
{
    if (workload == "fuzz")
        return 99.75;
    if (workload == "campaign")
        return 95.0;
    return 99.0;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonNumber(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
jsonString(const std::string &s)
{
    return "\"" + core::jsonEscape(s) + "\"";
}

template <typename Map>
std::string
jsonObject(const Map &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m) {
        out += (out.size() > 1 ? ", " : "") + jsonString(k) + ": " +
               jsonNumber(v);
    }
    return out + "}";
}

/**
 * Peak resident memory of this process image. VmHWM, not
 * getrusage's ru_maxrss: the latter survives exec, so it would report
 * the launching interpreter's footprint when that was larger.
 */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    die("no VmHWM in /proc/self/status");
}

/** Failed checks: counted, the first few kept for the report. */
struct Failures
{
    std::size_t count = 0;
    std::vector<std::string> first;

    void
    record(const std::string &why)
    {
        if (why.empty())
            return;
        ++count;
        if (first.size() < 5)
            first.push_back(why);
    }

    std::string
    json() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < first.size(); ++i)
            out += (i ? ", " : "") + jsonString(first[i]);
        return out + "]";
    }
};

/**
 * Percentile of the per-layer tails. Fixed, unlike the op tail, since
 * per-layer metrics carry no bound: p99.75 sits inside the heaviest
 * call of a round (on fuzz, inside the runaway alternates).
 */
constexpr double kLayerTailPct = 99.75;

/** Per-layer times of a traced run, per op, from its spans. */
std::map<std::string, double>
spanMetrics(const Tracer &t, std::size_t ops)
{
    std::map<std::string, double> m;
    const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
    const std::map<std::string, double> self = t.selfTotals();
    const auto perOp = [&](const char *span) {
        auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second / n;
    };
    const auto tail = [&](const char *span) {
        std::vector<double> v = t.durations(span);
        std::sort(v.begin(), v.end());
        return percentile(v, kLayerTailPct);
    };
    m["detect.ms"] = perOp("detect");
    m["static.ms"] = perOp("static");
    m["ladder.ms"] = perOp("ladder");
    m["classify.ms"] = perOp("classify");
    m["render.ms"] = perOp("render");
    m["fuzz.generate_ms"] = perOp("generate");
    m["fuzz.oracle_ms"] = perOp("oracle");
    m["classify.tail_ms"] = tail("classify");
    m["fuzz.oracle_tail_ms"] = tail("oracle");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> wl = makeWorkload(args);

    // Probe readings bracket the set-up and recur between rounds;
    // run.py scales the run's times by their median.
    std::vector<double> probe_ms{probeHostMs()};
    const Clock::time_point setup_t0 = Clock::now();
    wl->setup();
    const double setup_s = msSince(setup_t0) / 1000.0;
    probe_ms.push_back(probeHostMs());
    if (args.mode == "setup") {
        std::printf("{\"mode\": \"setup\", \"setup_s\": %s, "
                    "\"probe_ms\": %s}\n",
                    jsonNumber(setup_s).c_str(),
                    jsonNumber(median(probe_ms)).c_str());
        return 0;
    }
    Failures failures;
    failures.record(wl->prepareChecks());

    const bool traced = args.mode == "traced";
    obs::Collector collector;
    if (traced)
        obs::setCollector(&collector);
    Tracer tracer;
    Ledger ledger;

    std::vector<double> op_ms;
    double busy_ms = 0.0;
    const Clock::time_point t0 = Clock::now();
    double last_probe_ms = 0.0;
    for (std::size_t round = 0;; ++round) {
        if (msSince(t0) - last_probe_ms >= kProbeEveryMs) {
            probe_ms.push_back(probeHostMs());
            last_probe_ms = msSince(t0);
        }
        Ledger *l = round == 0 ? &ledger : nullptr;
        wl->beginRound();
        for (std::size_t i = 0; i < wl->roundSize(); ++i) {
            wl->prepare(i);
            const Clock::time_point op_t0 = Clock::now();
            if (traced) {
                Scope op(&tracer, "op");
                wl->trace(i, tracer, l);
            } else {
                wl->run(i);
            }
            const double ms = msSince(op_t0);
            op_ms.push_back(ms);
            busy_ms += ms;
            failures.record(wl->check(i));
        }
        failures.record(wl->checkRound());
        if (msSince(t0) >= args.seconds * 1000.0)
            break;
    }
    if (traced)
        obs::setCollector(nullptr);

    const std::size_t ops = op_ms.size();
    const std::size_t failed = std::min(ops, failures.count);
    const double ops_per_s = static_cast<double>(ops) / (busy_ms / 1000.0);
    std::string out = "{\"mode\": " + jsonString(args.mode) +
                      ", \"workload\": " + jsonString(args.workload) +
                      ", \"attempted\": " + std::to_string(ops) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"failures\": " + failures.json() +
                      ", \"setup_s\": " + jsonNumber(setup_s) +
                      ", \"ops_per_s\": " + jsonNumber(ops_per_s) +
                      ", \"probe_ms\": " + jsonNumber(median(probe_ms));
    if (!traced) {
        const Tail tail = tailOf(op_ms, tailCap(args.workload));
        std::sort(op_ms.begin(), op_ms.end());
        out += ", \"op_p50_ms\": " + jsonNumber(percentile(op_ms, 50)) +
               ", \"op_tail_ms\": " + jsonNumber(tail.value) +
               ", \"tail_pct\": " + jsonNumber(tail.pct) +
               ", \"tail_beyond\": " + std::to_string(tail.beyond) +
               ", \"peak_rss_mb\": " + jsonNumber(peakRssMb());
    } else {
        std::map<std::string, std::uint64_t> counts = ledger.sums;
        for (const auto &[k, v] : ledger.maxes)
            counts[k] = v;
        std::map<std::string, double> layers =
            spanMetrics(tracer, ops);
        wl->layerMetrics(layers, ops);
        out += ", \"counts\": " + jsonObject(counts) +
               ", \"layers\": " + jsonObject(layers);
        if (!args.spans_out.empty())
            tracer.write(args.spans_out);
    }
    std::printf("%s}\n", out.c_str());
    return 0;
}
