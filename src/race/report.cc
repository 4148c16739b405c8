#include "race/report.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

namespace portend::race {

std::string
RaceReport::key() const
{
    int lo = std::min(first.pc, second.pc);
    int hi = std::max(first.pc, second.pc);
    std::ostringstream os;
    os << cell << ":" << lo << ":" << hi;
    return os.str();
}

std::string
RaceReport::describe(const ir::Program &p) const
{
    std::ostringstream os;
    os << "Data race during access to: " << p.cellName(cell) << "\n";
    os << "  current thread id: " << second.tid << ": "
       << (second.is_write ? "WRITE" : "READ") << "\n";
    os << "  racing thread id: " << first.tid << ": "
       << (first.is_write ? "WRITE" : "READ") << "\n";
    os << "  Current thread at: " << p.instAt(second.pc).loc.toString()
       << " (pc" << second.pc << ")\n";
    os << "  Previous at: " << p.instAt(first.pc).loc.toString()
       << " (pc" << first.pc << ")\n";
    return os.str();
}

std::vector<RaceCluster>
clusterRaces(const std::vector<RaceReport> &reports)
{
    std::vector<RaceCluster> out;
    // Keyed like key(): (cell, low pc, high pc).
    std::map<std::tuple<int, int, int>, std::size_t> index;
    for (const auto &r : reports) {
        auto [it, inserted] = index.emplace(
            std::make_tuple(r.cell, std::min(r.first.pc, r.second.pc),
                            std::max(r.first.pc, r.second.pc)),
            out.size());
        if (inserted) {
            RaceCluster c;
            c.representative = r;
            c.instances = 1;
            out.push_back(std::move(c));
        } else {
            // Keep the *latest* occurrence as representative: for
            // flag-style synchronization the mature pair (write
            // before the consuming read) is the one whose alternate
            // ordering reveals the ad-hoc synchronization.
            out[it->second].representative = r;
            out[it->second].instances += 1;
        }
    }
    return out;
}

} // namespace portend::race
