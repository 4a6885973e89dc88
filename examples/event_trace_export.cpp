/**
 * @file
 * event_trace_export: convert a binary .evtrace file (written by a
 * bench run with --event-trace, by signal_trace_visualizer, or by
 * sim::writeEventTraceBinary) to Chrome-tracing JSON for
 * ui.perfetto.dev / chrome://tracing.
 *
 *   event_trace_export input.evtrace output.trace.json [--window N]
 *
 * Also prints a summary of the trace (units, events, per-window
 * aggregate series) and a per-box table of clocked cycles and their
 * share of the run to stdout, so it doubles as a quick inspection
 * tool when no browser is at hand.
 */

#include <charconv>
#include <iostream>
#include <optional>
#include <string>

#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/trace_export.hh"

using namespace attila;

namespace
{

/** A --window value: decimal digits only, at least 1, no overflow. */
std::optional<u64>
parseWindow(const std::string& text)
{
    u64 value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value == 0)
        return std::nullopt;
    return value;
}

int
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " input.evtrace output.trace.json [--window N]\n";
    return 2;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    std::string input;
    std::string output;
    u64 window = 10000;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool joined = arg.rfind("--window=", 0) == 0;
        if (joined || arg == "--window") {
            if (!joined && i + 1 == argc)
                return usage(argv[0]);
            const std::string value =
                joined ? arg.substr(9) : std::string(argv[++i]);
            const std::optional<u64> parsed = parseWindow(value);
            if (!parsed) {
                std::cerr << "error: --window expects a positive "
                             "integer, got '"
                          << value << "'\n";
                return usage(argv[0]);
            }
            window = *parsed;
        } else if (input.empty()) {
            input = arg;
        } else if (output.empty()) {
            output = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (input.empty() || output.empty())
        return usage(argv[0]);

    try {
        const sim::EventTraceData data =
            sim::readEventTraceBinary(input);
        sim::writeChromeTraceJson(data, window, output);
        const sim::TraceSeries series =
            sim::aggregateTrace(data, window);

        std::cout << "trace: " << input << "\n"
                  << "  boxes: " << data.boxes.size()
                  << "  signals: " << data.signals.size()
                  << "  caches: " << data.caches.size()
                  << "  shaders: " << data.shaders.size() << "\n"
                  << "  events: " << data.events.size()
                  << "  dropped: " << data.dropped << "\n"
                  << "  series (" << window << "-cycle windows): "
                  << series.counts.size() << " over "
                  << series.buckets << " buckets\n"
                  << "wrote " << output
                  << " — open it at https://ui.perfetto.dev\n";
        sim::printBoxActivity(std::cout, sim::boxActivity(data));
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const SimError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    return 0;
}
