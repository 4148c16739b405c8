#include "explore/explorer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "support/hash.h"
#include "support/observe.h"
#include "support/trace.h"

namespace portend::explore {

namespace {

using Access = rt::ScheduleObservation::Access;

/** One step of the prefix hash: FNV-1a over a 32-bit word. */
std::size_t
foldThread(std::size_t h, rt::ThreadId t)
{
    return static_cast<std::size_t>(
        (h ^ static_cast<std::uint32_t>(t)) * kFnvPrime);
}

/**
 * Dense ids for int keys, in first-appearance order: a flat
 * open-addressing table with room for @p capacity distinct keys (one
 * allocation, expected constant time per lookup).
 */
class DenseIds
{
  public:
    explicit DenseIds(std::size_t capacity)
    {
        while ((std::size_t{1} << bits) < 2 * capacity)
            bits += 1;
        slots.resize(std::size_t{1} << bits);
    }

    int
    operator()(int key)
    {
        const std::size_t mask = slots.size() - 1;
        // Fibonacci hashing: the product's top bits pick the slot.
        std::size_t h =
            (static_cast<std::uint32_t>(key) * 0x9e3779b9u) >> (32 - bits);
        while (slots[h].id >= 0 && slots[h].key != key)
            h = (h + 1) & mask;
        if (slots[h].id < 0)
            slots[h] = {key, count++};
        return slots[h].id;
    }

  private:
    struct Slot
    {
        int key = 0;
        int id = -1;
    };
    std::vector<Slot> slots;
    unsigned bits = 4;
    int count = 0;
};

/**
 * The events of ev[0, n) chained by an int key, each chain in
 * ascending event order: first(i) is the earliest event sharing
 * event i's key, next(k) the one after event k (or -1).
 */
class Chains
{
  public:
    template <class Key>
    Chains(const std::vector<Access> &ev, std::size_t n, Key key)
        : head(n), succ(n, -1)
    {
        DenseIds ids(n);
        std::vector<int> ends(2 * n, -1); // first, then last, per id
        for (std::size_t i = 0; i < n; ++i) {
            const auto id = static_cast<std::size_t>(ids(key(ev[i])));
            int &first = ends[id];
            int &last = ends[n + id];
            if (first < 0)
                first = static_cast<int>(i);
            else
                succ[static_cast<std::size_t>(last)] = static_cast<int>(i);
            last = static_cast<int>(i);
            head[i] = first;
        }
    }

    int first(std::size_t i) const { return head[i]; }
    int next(int k) const { return succ[static_cast<std::size_t>(k)]; }

  private:
    std::vector<int> head;
    std::vector<int> succ;
};

/**
 * Spell the Foata normal form through @p emit(const char *, size_t):
 * events sorted by (level, thread, site, write), '|' between levels,
 * ',' within one, each event as t<tid>{w,r}<site>. Events sharing a
 * level are pairwise independent by construction, so sorting a level
 * is pure canonicalization.
 */
template <class Emit>
void
spellSignature(const rt::ScheduleObservation &obs, Emit &&emit)
{
    const std::vector<Access> &ev = obs.accesses;
    const std::size_t n = ev.size();

    struct Key
    {
        int level;
        rt::ThreadId tid;
        int site;
        bool write;

        bool
        operator<(const Key &o) const
        {
            if (level != o.level)
                return level < o.level;
            if (tid != o.tid)
                return tid < o.tid;
            if (site != o.site)
                return site < o.site;
            return write < o.write;
        }
    };

    // Foata levels in one pass: an event's level is one past the
    // deepest earlier event it depends on (see
    // ScheduleObservation::dependent), which is the deepest of the
    // same thread's earlier events and, on its site, of every earlier
    // access (for a write) or every earlier write (for a read). So
    // three running maxima per thread or site replace the pairwise
    // scan.
    DenseIds thread_id(n);
    DenseIds site_id(n);
    std::vector<int> tops(3 * n, -1);
    int *thread_top = tops.data();
    int *access_top = thread_top + n;
    int *write_top = access_top + n;
    std::vector<Key> keys;
    keys.reserve(n);
    for (const Access &a : ev) {
        int &tt = thread_top[thread_id(a.tid)];
        int &at = access_top[site_id(a.site)];
        int &wt = write_top[site_id(a.site)];
        const int lv = std::max(tt, a.write ? at : wt) + 1;
        tt = lv;
        at = std::max(at, lv);
        if (a.write)
            wt = lv;
        keys.push_back({lv, a.tid, a.site, a.write});
    }
    std::sort(keys.begin(), keys.end());

    char buf[32];
    int cur = -1;
    for (const Key &k : keys) {
        char *out = buf;
        if (k.level != cur) {
            if (cur >= 0)
                *out++ = '|';
            cur = k.level;
        } else {
            *out++ = ',';
        }
        *out++ = 't';
        out = std::to_chars(out, buf + sizeof buf, k.tid).ptr;
        *out++ = k.write ? 'w' : 'r';
        out = std::to_chars(out, buf + sizeof buf, k.site).ptr;
        emit(buf, static_cast<std::size_t>(out - buf));
    }
}

} // namespace

std::string
canonicalSignature(const rt::ScheduleObservation &obs)
{
    std::string out;
    out.reserve(obs.accesses.size() * 10);
    spellSignature(obs, [&](const char *s, std::size_t n) {
        out.append(s, n);
    });
    return out;
}

std::string
signatureHash(const rt::ScheduleObservation &obs)
{
    // Streams FNV-1a over the canonicalSignature bytes.
    std::uint64_t h = kFnvOffset;
    spellSignature(obs, [&](const char *s, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            h = fnv1aByte(h, static_cast<std::uint8_t>(s[i]));
    });
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

bool
ScheduleExplorer::PrefixEq::operator()(const PrefixView &v,
                                       const Issued &b) const
{
    const Prefix &p = b.prefix;
    if (p.size() != v.len + static_cast<std::size_t>(v.chunk) ||
        !std::equal(v.head, v.head + v.len, p.begin()))
        return false;
    return std::all_of(p.begin() + static_cast<long>(v.len), p.end(),
                       [&](rt::ThreadId t) { return t == v.tid; });
}

ScheduleExplorer::ScheduleExplorer(ExplorerOptions o) : opts(o)
{
    if (opts.max_runs <= 0)
        opts.max_runs = opts.budget * 4 + 4;
    // Pre-seed classes witnessed by earlier explorers so distinct_
    // only counts globally-new ones (per-path budget sharing).
    seen_ = opts.known;
    // The systematic baseline: no injected preemptions, pure
    // deterministic fallback. Runs after the random phase.
    push(PrefixView{nullptr, 0, -1, 0, static_cast<std::size_t>(kFnvOffset)},
         0);
}

std::optional<PostSpec>
ScheduleExplorer::next()
{
    // The full random phase always runs; only then do budget and
    // cap apply.
    if (opts.random_first && random_issued_ < opts.budget) {
        runs_ += 1;
        random_issued_ += 1;
        last_preemptions_ = 0;
        return PostSpec::random(opts.seed_base + random_issued_);
    }
    if (distinct_ >= opts.budget || runs_ >= opts.max_runs)
        return std::nullopt;
    if (frontier.empty()) {
        exhausted_ = true;
        return std::nullopt;
    }
    const Candidate c = frontier.front();
    frontier.pop_front();
    runs_ += 1;
    last_preemptions_ = c.preemptions;
    return PostSpec::guided(*c.prefix);
}

bool
ScheduleExplorer::record(const rt::ScheduleObservation &obs)
{
    // The span covers expand(): DPOR backtrack-candidate generation
    // is the part worth seeing in a trace. (Fully qualified: the
    // observation parameter shadows the obs namespace here.)
    ::portend::obs::Span span("explore", "record");
    last_sig_ = signatureHash(obs);
    const bool fresh = seen_.insert(last_sig_).second;
    if (fresh)
        distinct_ += 1;
    const std::size_t frontier0 = frontier.size();
    if (last_preemptions_ < opts.preemption_bound)
        expand(obs, last_preemptions_);
    span.arg("fresh", fresh ? 1 : 0);
    span.arg("candidates",
             static_cast<std::int64_t>(frontier.size() - frontier0));
    if (auto *c = ::portend::obs::collector()) {
        using ::portend::obs::Counter;
        c->add(Counter::ExploreRecorded, 1);
        c->add(Counter::ExploreDistinct, fresh ? 1 : 0);
        c->add(Counter::ExploreCandidates, frontier.size() - frontier0);
    }
    return fresh;
}

void
ScheduleExplorer::push(const PrefixView &v, int preemptions)
{
    if (issued_.find(v) != issued_.end())
        return; // sleep-set pruning: one execution per prefix, ever
    Issued e;
    e.hash = v.hash;
    e.prefix.reserve(v.len + static_cast<std::size_t>(v.chunk));
    e.prefix.assign(v.head, v.head + v.len);
    e.prefix.insert(e.prefix.end(), static_cast<std::size_t>(v.chunk),
                    v.tid);
    auto it = issued_.insert(std::move(e)).first;
    frontier.push_back({&it->prefix, preemptions});
}

void
ScheduleExplorer::expand(const rt::ScheduleObservation &obs,
                         int base_preempt)
{
    const std::vector<Access> &ev = obs.accesses;
    // Guard against pathological runs (spin loops under a random
    // schedule): the pairs on one hot site grow quadratically with
    // the window.
    const std::size_t window = std::min<std::size_t>(ev.size(), 512);

    // Only same-site pairs can conflict, and a chunk counts one
    // thread's events: chain the window by site and by thread once.
    const Chains sites(ev, window, [](const Access &a) { return a.site; });
    const Chains threads(ev, window, [](const Access &a) { return a.tid; });

    // Every child is picks[0, p) followed by `chunk` copies of one
    // thread, so (p, thread, chunk) names it. A triple already tried,
    // in this call or an earlier one, is found in issued_ by a probe
    // hashed from the picks' prefix hashes, before any copy is made.
    std::vector<std::size_t> head_hash(obs.picks.size() + 1,
                                       static_cast<std::size_t>(kFnvOffset));
    for (std::size_t k = 0; k < obs.picks.size(); ++k)
        head_hash[k + 1] = foldThread(head_hash[k], obs.picks[k]);
    auto pushChild = [&](std::size_t p, rt::ThreadId t, int chunk) {
        PrefixView v{obs.picks.data(), p, t, chunk, head_hash[p]};
        for (int c = 0; c < chunk; ++c)
            v.hash = foldThread(v.hash, t);
        push(v, base_preempt + 1);
    };

    // Pairs (i, j), i < j, in (j ascending, i ascending) order.
    for (std::size_t j = 1; j < window; ++j) {
        const Access &b = ev[j];
        for (int i = sites.first(j); i < static_cast<int>(j);
             i = sites.next(i)) {
            const Access &a = ev[static_cast<std::size_t>(i)];
            if (a.tid == b.tid || a.pick < 0 || !(a.write || b.write))
                continue;

            // Backtrack: at the decision that ran `a`, run `b`'s
            // thread instead — repeatedly, until it has executed
            // its conflicting access — flipping the pair in one
            // injected preemption (a chunk; a single rescheduled
            // step followed by the fair fallback almost never
            // realizes a distant flip). When b's thread was not
            // enabled there (blocked on a lock, not yet created),
            // fall back to every other enabled choice — the classic
            // persistent-set widening.
            const std::size_t p = static_cast<std::size_t>(a.pick);
            if (p >= obs.picks.size() || p >= obs.enabled.size())
                continue;
            const std::vector<rt::ThreadId> &en = obs.enabled[p];
            const bool b_enabled =
                std::find(en.begin(), en.end(), b.tid) != en.end();
            if (b_enabled) {
                // One pick per pending b-segment up to (and
                // including) the conflicting access itself.
                int chunk = 1;
                for (int k = threads.first(j); k < static_cast<int>(j);
                     k = threads.next(k)) {
                    if (ev[static_cast<std::size_t>(k)].pick >= a.pick)
                        chunk += 1;
                }
                pushChild(p, b.tid, chunk);
            } else {
                for (rt::ThreadId t : en) {
                    if (t != obs.picks[p])
                        pushChild(p, t, 1);
                }
            }
        }
    }
}

} // namespace portend::explore
