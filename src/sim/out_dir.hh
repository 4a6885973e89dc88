/**
 * @file
 * outPath: route generated artifacts (.ppm images, .csv stats,
 * .evtrace dumps) into an out/ directory under the current working
 * directory instead of littering the repository root.
 */

#ifndef ATTILA_SIM_OUT_DIR_HH
#define ATTILA_SIM_OUT_DIR_HH

#include <filesystem>
#include <string>

namespace attila::sim
{

/** Return "out/<name>", creating the out/ directory on first use.
 * Falls back to @p name unchanged if the directory cannot be
 * created (e.g. read-only cwd). */
inline std::string
outPath(const std::string& name)
{
    std::error_code ec;
    std::filesystem::create_directories("out", ec);
    if (ec && !std::filesystem::is_directory("out"))
        return name;
    return (std::filesystem::path("out") / name).string();
}

} // namespace attila::sim

#endif // ATTILA_SIM_OUT_DIR_HH
