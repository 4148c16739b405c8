/**
 * @file
 * Systematic post-race schedule exploration.
 *
 * Portend's stage 3 multiplies witnesses by running Ma alternate
 * executions per primary path. Sampling those schedules from a
 * seeded RNG silently burns budget on duplicate and
 * Mazurkiewicz-equivalent interleavings; the ScheduleExplorer
 * replaces sampling with a systematic enumerator in the spirit of
 * dynamic partial-order reduction:
 *
 *  - every issued schedule is replayable: an explicit decision
 *    prefix applied by rt::GuidedPolicy, completed by a
 *    deterministic fallback;
 *  - each executed schedule is canonicalized to its Foata normal
 *    form over the observed dependence relation
 *    (canonicalSignature), so equivalent interleavings collapse
 *    onto one signature and the budget counts *distinct* classes;
 *  - new candidates come from DPOR-style backtracking: for every
 *    pair of conflicting accesses by different threads, reschedule
 *    the later thread at the decision point that ran the earlier
 *    one (or, when it was not yet enabled there, every other
 *    enabled thread — the persistent-set fallback rule), bounded by
 *    a preemption budget and pruned sleep-set style (a decision
 *    prefix is never issued twice).
 *
 * Mode contract (relied on by the fuzz oracle's monotonicity
 * checks): in Dpor mode the explorer first issues exactly the
 * schedules Random mode would issue, with the same seeds and in the
 * same order, and only then its systematic candidates. A Dpor run
 * therefore explores a superset of the Random run's behaviors at
 * equal budget: switching random -> dpor can move a verdict from
 * "k-witness harmless" toward "output differs"/"spec violated",
 * never the reverse.
 *
 * The explorer is pure bookkeeping — it never executes anything and
 * is deterministic given the observations fed back to it, which is
 * why exploration results are byte-identical across --jobs values
 * and across sanitizer builds.
 */

#ifndef PORTEND_EXPLORE_EXPLORER_H
#define PORTEND_EXPLORE_EXPLORER_H

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "rt/policy.h"

namespace portend::explore {

/** How stage 3 chooses post-race schedules. */
enum class ExploreMode : std::uint8_t {
    Random, ///< legacy seeded sampling (Ma runs, duplicates allowed)
    Dpor,   ///< the Random schedules, then systematic backtracking
            ///< until Ma *distinct* interleavings were witnessed
};

/** Printable mode name (CLI spelling). */
const char *exploreModeName(ExploreMode m);

/**
 * One post-race schedule to execute.
 *
 * Exactly one shape per kind:
 *  - Trace: deterministically keep following the recorded trace
 *    (stage 1's single-alternate; never issued by an explorer);
 *  - Random: seed the state RNG and sample every decision;
 *  - Guided: apply @p prefix at successive post-race decision
 *    points, then a deterministic rotate fallback.
 */
struct PostSpec
{
    enum class Kind : std::uint8_t { Trace, Random, Guided };

    Kind kind = Kind::Trace;
    std::uint64_t seed = 0;             ///< Random only
    std::vector<rt::ThreadId> prefix;   ///< Guided only

    static PostSpec
    trace()
    {
        return PostSpec{};
    }

    static PostSpec
    random(std::uint64_t seed)
    {
        PostSpec s;
        s.kind = Kind::Random;
        s.seed = seed;
        return s;
    }

    static PostSpec
    guided(std::vector<rt::ThreadId> prefix)
    {
        PostSpec s;
        s.kind = Kind::Guided;
        s.prefix = std::move(prefix);
        return s;
    }
};

/**
 * Foata normal form of an observed schedule: events are layered by
 * their dependence depth and sorted within a layer (layer members
 * are pairwise independent, so the order is representation, not
 * behavior). Two executions get equal signatures iff their access
 * sequences are Mazurkiewicz-trace equivalent — reorderings of
 * independent accesses collapse, reorderings of conflicting
 * accesses do not.
 */
std::string canonicalSignature(const rt::ScheduleObservation &obs);

/** FNV-1a digest of canonicalSignature, as 16 lowercase hex chars
 *  (the compact form stored in evidence and printed in reports). */
std::string signatureHash(const rt::ScheduleObservation &obs);

/** Explorer configuration. */
struct ExplorerOptions
{
    ExploreMode mode = ExploreMode::Dpor;

    /**
     * Schedule budget (the CLI's Ma): in Random mode the number of
     * runs; in Dpor mode the number of *distinct* interleavings to
     * collect before stopping.
     */
    int budget = 2;

    /**
     * Hard cap on executed runs in Dpor mode, so a space with fewer
     * classes than the budget terminates. 0 = 4 * budget + 4.
     */
    int max_runs = 0;

    /**
     * Maximum injected preemptions per systematic candidate (each
     * backtrack adds one); candidates at the bound are run but not
     * expanded further.
     */
    int preemption_bound = 4;

    /** Random-phase seeds are seed_base + 1, seed_base + 2, ... */
    std::uint64_t seed_base = 0;

    /**
     * Issue the Random-mode schedules before systematic candidates
     * (the Dpor superset contract above). Tests disable this to
     * measure pure systematic coverage.
     */
    bool random_first = true;

    /**
     * Signature hashes already witnessed by earlier explorers (the
     * per-path budgeting used by multi-path analysis: each path's
     * explorer inherits its predecessors' classes, so distinct()
     * counts only globally-new interleaving classes and the budget
     * is shared across paths instead of multiplied by them).
     */
    std::set<std::string> known;
};

/**
 * Issues schedules via next() and learns from observations via
 * record(); see the file comment for the exploration strategy.
 *
 * Protocol: strictly alternate next() / record(obs) (record may be
 * skipped for runs that never reached the post-race phase — they
 * teach nothing and count as no class).
 */
class ScheduleExplorer
{
  public:
    explicit ScheduleExplorer(ExplorerOptions opts);

    /** Frontier entries point into this explorer's own issued_. */
    ScheduleExplorer(const ScheduleExplorer &) = delete;
    ScheduleExplorer &operator=(const ScheduleExplorer &) = delete;

    /**
     * The next schedule to execute, or nullopt when the budget is
     * met, the run cap is hit, or the candidate space is exhausted.
     */
    std::optional<PostSpec> next();

    /**
     * Feed back what the schedule issued by the last next() did.
     *
     * @return true when the run realized a class no earlier run of
     *         this explorer had witnessed (a *distinct* schedule)
     */
    bool record(const rt::ScheduleObservation &obs);

    /** Distinct equivalence classes witnessed so far. */
    int distinct() const { return distinct_; }

    /** Runs issued so far. */
    int runs() const { return runs_; }

    /** Signature hash computed by the most recent record(). */
    const std::string &lastSignature() const { return last_sig_; }

    /** True when next() returned nullopt with budget remaining
     *  because the candidate space was exhausted. */
    bool exhausted() const { return exhausted_; }

    /** All signature hashes witnessed (sorted; for tests/benches). */
    const std::set<std::string> &signatures() const { return seen_; }

  private:
    using Prefix = std::vector<rt::ThreadId>;

    /** One not-yet-executed systematic schedule. */
    struct Candidate
    {
        const Prefix *prefix = nullptr; ///< its entry in issued_
        int preemptions = 0;
    };

    /**
     * A candidate prefix before it is built: head[0, len) followed by
     * @p chunk copies of @p tid, with its hash (FNV-1a over the thread
     * ids, one word per id) precomputed, so issued_ can be probed
     * without copying anything.
     */
    struct PrefixView
    {
        const rt::ThreadId *head = nullptr;
        std::size_t len = 0;
        rt::ThreadId tid = -1;
        int chunk = 0;
        std::size_t hash = 0;
    };

    /** A built prefix, keeping the hash of the view it came from. */
    struct Issued
    {
        Prefix prefix;
        std::size_t hash = 0;
    };

    struct PrefixHash
    {
        using is_transparent = void;
        std::size_t operator()(const Issued &e) const { return e.hash; }
        std::size_t operator()(const PrefixView &v) const { return v.hash; }
    };

    /** Exact element-wise equality between built and unbuilt prefixes. */
    struct PrefixEq
    {
        using is_transparent = void;
        bool operator()(const Issued &a, const Issued &b) const
        {
            return a.prefix == b.prefix;
        }
        bool operator()(const PrefixView &v, const Issued &b) const;
        bool operator()(const Issued &a, const PrefixView &v) const
        {
            return (*this)(v, a);
        }
    };

    /** Grow the frontier from one observed run. */
    void expand(const rt::ScheduleObservation &obs, int base_preempt);

    /** Enqueue a candidate unless its prefix was issued before. */
    void push(const PrefixView &v, int preemptions);

    ExplorerOptions opts;
    std::deque<Candidate> frontier;
    /** Every prefix ever enqueued (node-based: Candidate points in). */
    std::unordered_set<Issued, PrefixHash, PrefixEq> issued_;
    std::set<std::string> seen_;
    std::string last_sig_;
    int random_issued_ = 0;
    int runs_ = 0;
    int distinct_ = 0;
    int last_preemptions_ = 0;
    bool exhausted_ = false;
};

} // namespace portend::explore

#endif // PORTEND_EXPLORE_EXPLORER_H
