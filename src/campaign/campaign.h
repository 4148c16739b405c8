/**
 * @file
 * The campaign engine: batch classification as a first-class,
 * persistent object (`portend-campaign-v1`).
 *
 * A Campaign is a manifest of work units (program × analysis config),
 * a content-addressed verdict cache keyed by the deterministic
 * campaign signature (signature.h), and an append-only fsync'd
 * journal (journal.h). The engine drives the remaining units through
 * a campaign::Queue on the support/ thread pool; each unit runs the
 * standard detect→classify pipeline with a cache probe in between
 * (the recorded trace's hash completes the key), journals its
 * completion durably, and streams a JSON-lines event through the
 * obs::Progress sink. Rendered verdict bytes merge in manifest
 * order, so campaign output is byte-identical to the one-shot batch
 * loops it replaces — and byte-identical across kills and resumes.
 *
 * Three properties carry the whole design:
 *  - *cold identity*: an ephemeral campaign (no directory) renders
 *    exactly the bytes `classify --all`/`run --all` always produced;
 *  - *cache soundness*: equal signature implies equal verdict bytes
 *    (the determinism contracts of PRs 2/5/7/8), so replaying a
 *    cached payload is indistinguishable from re-running the unit;
 *  - *resume exactness*: a journal record is written only after its
 *    cache entry, so every journaled unit is replayable; killed
 *    campaigns resume with the remaining units and merge to the
 *    same bytes as an uninterrupted run.
 */

#ifndef PORTEND_CAMPAIGN_CAMPAIGN_H
#define PORTEND_CAMPAIGN_CAMPAIGN_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/cache.h"
#include "campaign/signature.h"
#include "portend/render.h"
#include "support/observe.h"

namespace portend::campaign {

/** One work unit in the manifest. */
struct UnitSpec
{
    std::string kind; ///< "workload" (registry name) | "file" (PIL path)
    std::string name;

    bool operator==(const UnitSpec &o) const = default;
};

/** Everything a campaign is parameterized by. */
struct CampaignConfig
{
    core::PortendOptions analysis; ///< `jobs` is runtime-only (not persisted)
    core::RenderMode render;       ///< output shape of cached payloads
    std::vector<UnitSpec> units;   ///< the manifest, in output order
};

/** The standard batch manifest: every Table 1 registry workload. */
std::vector<UnitSpec> registryUnits();

/** Serialize @p config as the manifest text (`portend-campaign-v1`). */
std::string manifestText(const CampaignConfig &config);

/** Parse manifest text; nullopt with @p error on malformed input. */
std::optional<CampaignConfig>
parseManifest(const std::string &text, std::string *error = nullptr);

/** How one unit's verdict bytes were obtained. */
enum class UnitSource : std::uint8_t {
    Pending,  ///< not reached (campaign aborted first)
    Executed, ///< full detect + classify ran
    CacheHit, ///< detection ran; classification came from the cache
    Journal,  ///< no execution at all: replayed from journal + cache
};

/** One unit's outcome. */
struct UnitResult
{
    std::size_t index = 0;
    UnitSpec spec;
    std::string sig;      ///< 16-hex campaign signature ("" if Pending)
    UnitKey key;          ///< the signature's components (journaling)
    std::string rendered; ///< verdict bytes ("" if Pending)
    UnitSource source = UnitSource::Pending;

    /** Pipeline metrics of an executed/cache-hit unit (a journal
     *  replay executes nothing and contributes an empty shard). */
    obs::MetricsShard metrics;
};

/** Outcome of one Campaign::run(). */
struct CampaignResult
{
    std::vector<UnitResult> units; ///< manifest order, all units

    /** Unit shards merged in manifest order, then the engine's own
     *  campaign.* counters. */
    obs::MetricsShard metrics;

    int executed = 0;        ///< units that ran the full pipeline
    int cache_hits = 0;      ///< post-detection signature probes that hit
    int journal_replays = 0; ///< journal records parsed at open
    int resume_skips = 0;    ///< units skipped entirely via the journal
    int journal_torn = 0;    ///< unparseable journal lines tolerated
    bool aborted = false;    ///< stopped by the unit-count abort hook
    std::string error;       ///< first persistence error ("" = none)

    /** True when every unit has verdict bytes. */
    bool complete() const;

    /** All units' rendered bytes, joined exactly like the one-shot
     *  batch CLI: text reports separated by one blank line, JSON
     *  objects wrapped into an array. */
    std::string mergedOutput(bool json) const;
};

/**
 * A classification campaign over a fixed manifest. Construct
 * ephemeral (in-memory) via the config constructor, or persistent
 * via create()/open().
 *
 * run() drives three phases: replay the journal to skip units a
 * previous run completed, execute the rest on the thread pool
 * (journaling each completion after its cache entry), and merge
 * metrics in manifest order. The resume and byte-identity contracts
 * are properties of these phases, not of the threading.
 */
class Campaign
{
  public:
    /** Ephemeral campaign: no directory, no journal; the in-memory
     *  verdict cache still dedups within the run. */
    explicit Campaign(CampaignConfig config);

    /**
     * Create or re-enter the campaign at @p dir. A fresh directory
     * is initialized (manifest written); an existing campaign is
     * re-entered only when its manifest matches @p config exactly —
     * a mismatch is an error, never a silent re-configuration.
     *
     * @param cache_dir overrides the verdict-cache directory
     *        (default `<dir>/cache`), so several campaigns can share
     *        one cross-campaign cache.
     */
    static std::optional<Campaign> create(const std::string &dir,
                                          CampaignConfig config,
                                          std::string *error = nullptr,
                                          const std::string &cache_dir = "");

    /** Open an existing campaign, taking every parameter from its
     *  manifest (the resume path: flags cannot skew a resumed run). */
    static std::optional<Campaign> open(const std::string &dir,
                                        std::string *error = nullptr);

    /**
     * Execute every unit the journal does not already cover and
     * merge all results in manifest order.
     *
     * @param abort_after_units when >= 0, stop claiming new units
     *        once that many have been executed *and journaled* by
     *        this call — the crash simulation behind the
     *        kill-and-resume tests (with --jobs 1 the cut is exact;
     *        with more workers, in-flight units still finish).
     * @param jobs_override when > 0, overrides config.analysis.jobs.
     */
    CampaignResult run(int abort_after_units = -1,
                       int jobs_override = 0);

    const CampaignConfig &config() const { return config_; }

    /** Campaign state summary (for `portend campaign status`). */
    struct Status
    {
        std::size_t total_units = 0;
        std::size_t completed_units = 0; ///< journaled ∧ cache-backed
        std::size_t cache_entries = 0;   ///< .entry files on disk
        int journal_torn = 0;            ///< tolerated bad lines
    };
    Status status();

  private:
    Campaign(CampaignConfig config, std::string dir,
             std::string cache_dir = "");

    std::string journalPath() const;

    /** Phase 1 of run(): a fresh result skeleton (every manifest
     *  unit Pending) with all journal-covered units replayed from
     *  the cache. */
    CampaignResult replayJournal();

    /** The merge phase of run(): fold unit shards and the engine's
     *  campaign.* counters into result.metrics. */
    void finalize(CampaignResult &result) const;

    CampaignConfig config_;
    std::string dir_; ///< "" = ephemeral
    std::unique_ptr<VerdictCache> cache_;
};

} // namespace portend::campaign

#endif // PORTEND_CAMPAIGN_CAMPAIGN_H
