#include "sim/statistics.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace attila::sim
{

Statistic&
StatisticManager::get(const std::string& box_name,
                      const std::string& stat_name)
{
    const std::string full = box_name + "." + stat_name;
    std::lock_guard<std::mutex> lock(_registry);
    auto it = _stats.find(full);
    if (it == _stats.end()) {
        auto stat = std::make_unique<Statistic>(full, &_now);
        // Late-registered statistics must not desynchronize the CSV
        // rows: pad with empty windows already closed.
        for (std::size_t i = 0; i < _sampleCount; ++i)
            stat->closeWindow();
        it = _stats.emplace(full, std::move(stat)).first;
    }
    return *it->second;
}

const Statistic*
StatisticManager::find(const std::string& full_name) const
{
    // get() may insert from any worker thread (boxes register
    // statistics lazily), so every map traversal needs the registry
    // lock — an unlocked find() races the rebalancing of the tree.
    std::lock_guard<std::mutex> lock(_registry);
    auto it = _stats.find(full_name);
    return it == _stats.end() ? nullptr : it->second.get();
}

void
StatisticManager::closeAllWindows()
{
    std::lock_guard<std::mutex> lock(_registry);
    for (auto& [name, stat] : _stats)
        stat->closeWindow();
    ++_sampleCount;
}

std::vector<std::string>
StatisticManager::names() const
{
    std::lock_guard<std::mutex> lock(_registry);
    std::vector<std::string> out;
    out.reserve(_stats.size());
    for (const auto& [name, stat] : _stats)
        out.push_back(name);
    return out;
}

void
StatisticManager::writeCsv(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(_registry);
    os << "window";
    for (const auto& [name, stat] : _stats)
        os << ',' << name;
    os << '\n';
    for (std::size_t row = 0; row < _sampleCount; ++row) {
        os << row;
        for (const auto& [name, stat] : _stats) {
            os << ',';
            if (row < stat->samples().size())
                os << stat->samples()[row];
            else
                os << 0;
        }
        os << '\n';
    }
}

void
StatisticManager::writeTotalsCsv(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(_registry);
    os << "statistic,total\n";
    for (const auto& [name, stat] : _stats)
        os << name << ',' << stat->total() << '\n';
}

} // namespace attila::sim
