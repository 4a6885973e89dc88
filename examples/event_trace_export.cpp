/**
 * @file
 * event_trace_export: convert a binary .evtrace file (written by a
 * bench run with --event-trace, or by sim::writeEventTraceBinary) to
 * Chrome-tracing JSON for ui.perfetto.dev / chrome://tracing.
 *
 *   event_trace_export input.evtrace output.trace.json [--window N]
 *
 * Also prints a summary of the trace (units, events, per-window
 * aggregate series) to stdout, so it doubles as a quick inspection
 * tool when no browser is at hand.
 */

#include <iostream>
#include <string>

#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/trace_export.hh"

using namespace attila;

int
main(int argc, char** argv)
{
    std::string input;
    std::string output;
    u64 window = 10000;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--window=", 0) == 0) {
            window = std::stoull(arg.substr(9));
        } else if (arg == "--window" && i + 1 < argc) {
            window = std::stoull(argv[++i]);
        } else if (input.empty()) {
            input = arg;
        } else if (output.empty()) {
            output = arg;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " input.evtrace output.trace.json"
                         " [--window N]\n";
            return 2;
        }
    }
    if (input.empty() || output.empty() || window == 0) {
        std::cerr << "usage: " << argv[0]
                  << " input.evtrace output.trace.json"
                     " [--window N]\n";
        return 2;
    }

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
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const SimError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    return 0;
}
