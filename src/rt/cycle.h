/**
 * @file
 * Brent's cycle detection over interpreter state keys.
 *
 * A run whose (VM state, policy state) pair repeats at two scheduling
 * decisions is provably periodic from there on: the interpreter and
 * every policy that exposes a key are deterministic functions of that
 * pair. The interpreter feeds one key per decision point into a
 * CycleDetector; on a match it skips whole periods instead of
 * interpreting them (see Interpreter::run).
 *
 * A match needs equal hashes *and* equal keys word for word, so a
 * hash collision can cost a comparison but never report a cycle.
 */

#ifndef PORTEND_RT_CYCLE_H
#define PORTEND_RT_CYCLE_H

#include <cstdint>
#include <vector>

#include "support/hash.h"

namespace portend::rt {

/** A flattened state key: every word the future of a run depends on. */
using CycleKey = std::vector<std::uint64_t>;

/** Default key hash (a word-wise FNV-style multiply-xor mix). */
inline std::uint64_t
hashCycleKey(const CycleKey &key)
{
    std::uint64_t h = kFnvOffset;
    for (std::uint64_t w : key) {
        h = (h ^ w) * kFnvPrime;
        h ^= h >> 29;
    }
    return h;
}

/**
 * Online Brent detector: keeps one reference key, compares every new
 * key against it, and moves the reference forward at power-of-two
 * distances, so a sequence that enters a cycle of length L after M
 * keys is caught within O(M + L) probes.
 */
class CycleDetector
{
  public:
    using HashFn = std::uint64_t (*)(const CycleKey &);

    /** What one probe found. */
    enum class Probe : std::uint8_t {
        Saved, ///< the key became the new reference point
        Miss,  ///< no match yet
        Match, ///< the key equals the reference word for word
    };

    explicit CycleDetector(HashFn hash = &hashCycleKey) : hash_(hash) {}

    /** Feed the key of the next decision point. */
    Probe
    probe(const CycleKey &key)
    {
        const std::uint64_t h = hash_(key);
        if (!saved_) {
            save(key, h);
            return Probe::Saved;
        }
        lam_ += 1;
        if (h == ref_hash_ && key == ref_)
            return Probe::Match;
        if (lam_ == power_) {
            save(key, h);
            power_ *= 2;
            return Probe::Saved;
        }
        return Probe::Miss;
    }

    /** Forget the reference (the key sequence was interrupted). */
    void
    reset()
    {
        saved_ = false;
        power_ = 1;
        lam_ = 0;
    }

  private:
    void
    save(const CycleKey &key, std::uint64_t h)
    {
        ref_ = key;
        ref_hash_ = h;
        saved_ = true;
        lam_ = 0;
    }

    HashFn hash_;
    CycleKey ref_;
    std::uint64_t ref_hash_ = 0;
    std::uint64_t power_ = 1;
    std::uint64_t lam_ = 0;
    bool saved_ = false;
};

} // namespace portend::rt

#endif // PORTEND_RT_CYCLE_H
