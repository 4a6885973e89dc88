#include "sim/event_trace.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <tuple>

#include "sim/logging.hh"

namespace attila::sim
{

namespace
{

/** Globally unique trace serials; 0 is reserved for "empty" TLS
 * entries, so the counter starts at 1. */
u64
nextTraceSerial()
{
    static std::atomic<u64> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

constexpr char kMagic[8] = {'A', 'T', 'E', 'V', 'T', 'R', '0', '2'};

u64
fnv1a(const void* data, std::size_t size, u64 hash = 0xcbf29ce484222325ull)
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

} // anonymous namespace

EventTrace::EventTrace() : _serial(nextTraceSerial()) {}

EventTrace::Chunk*
EventTrace::freshChunk()
{
    std::lock_guard<std::mutex> lock(_mutex);
    TlsEntry& entry = tlsEntry(_serial);
    Chunk* chunk;
    if ((_chunks.size() + 1) * kChunkEvents > _limitEvents) {
        // Over the cap: hand this thread the shared discard sentinel
        // (never written — emit() checks the flag before storing).
        static Chunk discardSentinel{{}, true};
        chunk = &discardSentinel;
    } else {
        _chunks.push_back(std::make_unique<Chunk>());
        chunk = _chunks.back().get();
        chunk->events.reserve(kChunkEvents);
    }
    entry.serial = _serial;
    entry.chunk = chunk;
    return chunk;
}

u16
EventTrace::registerName(std::vector<std::string>& table,
                         const std::string& name, const char* what)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i] == name)
            return static_cast<u16>(i);
    }
    if (table.size() >= 0xFFFF)
        fatal("event trace: too many ", what, " registrations (",
              table.size(), ") adding '", name, "'");
    table.push_back(name);
    return static_cast<u16>(table.size() - 1);
}

u16
EventTrace::registerBox(const std::string& name)
{
    return registerName(_boxes, name, "box");
}

u16
EventTrace::registerSignal(const std::string& name)
{
    return registerName(_signals, name, "signal");
}

u16
EventTrace::registerCache(const std::string& name)
{
    return registerName(_caches, name, "cache");
}

u16
EventTrace::registerShader(const std::string& name)
{
    return registerName(_shaders, name, "shader");
}

EventTraceData
EventTrace::collect()
{
    std::lock_guard<std::mutex> lock(_mutex);
    EventTraceData data;
    data.boxes = _boxes;
    data.signals = _signals;
    data.caches = _caches;
    data.shaders = _shaders;
    data.dropped = _dropped.load(std::memory_order_relaxed);
    std::size_t total = 0;
    for (const auto& chunk : _chunks)
        total += chunk->events.size();
    data.events.reserve(total);
    for (auto& chunk : _chunks) {
        data.events.insert(data.events.end(), chunk->events.begin(),
                           chunk->events.end());
        chunk->events.clear();
    }
    // Merge the per-thread chunks into one cycle-ordered stream.  The
    // full-record tie-break makes the result a pure function of the
    // recorded multiset — the thread that happened to record an event
    // leaves no mark on the output.
    std::sort(data.events.begin(), data.events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return std::tie(a.cycle, a.kind, a.unit, a.id,
                                  a.parent, a.arg) <
                         std::tie(b.cycle, b.kind, b.unit, b.id,
                                  b.parent, b.arg);
              });
    return data;
}

u64
EventTrace::eventCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    u64 total = 0;
    for (const auto& chunk : _chunks)
        total += chunk->events.size();
    return total;
}

// ===== Binary trace files ==========================================

namespace
{

void
writeBytes(std::ofstream& out, const void* data, std::size_t size)
{
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
}

void
writeU32(std::ofstream& out, u32 v)
{
    writeBytes(out, &v, sizeof v);
}

void
writeU64(std::ofstream& out, u64 v)
{
    writeBytes(out, &v, sizeof v);
}

void
writeTable(std::ofstream& out, const std::vector<std::string>& table)
{
    writeU32(out, static_cast<u32>(table.size()));
    for (const std::string& name : table) {
        writeU32(out, static_cast<u32>(name.size()));
        writeBytes(out, name.data(), name.size());
    }
}

/** Checked reader that tracks its offset for diagnostics. */
struct BinaryReader
{
    std::ifstream in;
    const std::string& path;
    u64 offset = 0;

    void
    read(void* data, std::size_t size, const char* what)
    {
        in.read(static_cast<char*>(data),
                static_cast<std::streamsize>(size));
        if (static_cast<std::size_t>(in.gcount()) != size) {
            fatal("event trace: '", path, "': truncated ", what,
                  " at offset ", offset, " (wanted ", size,
                  " bytes, got ", in.gcount(), ")");
        }
        offset += size;
    }

    u32
    readU32(const char* what)
    {
        u32 v;
        read(&v, sizeof v, what);
        return v;
    }

    u64
    readU64(const char* what)
    {
        u64 v;
        read(&v, sizeof v, what);
        return v;
    }

    std::vector<std::string>
    readTable(const char* what)
    {
        const u32 count = readU32(what);
        if (count > (1u << 20))
            fatal("event trace: '", path, "': implausible ", what,
                  " count ", count, " at offset ", offset);
        std::vector<std::string> table;
        table.reserve(count);
        for (u32 i = 0; i < count; ++i) {
            const u32 len = readU32(what);
            if (len > 4096)
                fatal("event trace: '", path, "': implausible ",
                      what, " name length ", len, " at offset ",
                      offset);
            std::string name(len, '\0');
            read(name.data(), len, what);
            table.push_back(std::move(name));
        }
        return table;
    }
};

} // anonymous namespace

void
writeEventTraceBinary(const EventTraceData& data,
                      const std::string& path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("event trace: cannot open '", path, "' for writing");
    writeBytes(out, kMagic, sizeof kMagic);
    writeTable(out, data.boxes);
    writeTable(out, data.signals);
    writeTable(out, data.caches);
    writeTable(out, data.shaders);
    writeU64(out, data.dropped);
    writeU64(out, static_cast<u64>(data.events.size()));
    writeBytes(out, data.events.data(),
               data.events.size() * sizeof(TraceEvent));
    writeU64(out, fnv1a(data.events.data(),
                        data.events.size() * sizeof(TraceEvent)));
    if (!out)
        fatal("event trace: write error on '", path, "'");
}

EventTraceData
readEventTraceBinary(const std::string& path)
{
    BinaryReader reader{std::ifstream(path, std::ios::binary), path};
    if (!reader.in)
        fatal("event trace: cannot open '", path, "' for reading");

    char magic[sizeof kMagic];
    reader.read(magic, sizeof magic, "magic");
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        fatal("event trace: '", path,
              "': bad magic (not an .evtrace file, or an "
              "incompatible version)");

    EventTraceData data;
    data.boxes = reader.readTable("box table");
    data.signals = reader.readTable("signal table");
    data.caches = reader.readTable("cache table");
    data.shaders = reader.readTable("shader table");
    data.dropped = reader.readU64("dropped count");
    const u64 count = reader.readU64("event count");
    if (count > (u64{1} << 32))
        fatal("event trace: '", path, "': implausible event count ",
              count, " at offset ", reader.offset);
    data.events.resize(count);
    reader.read(data.events.data(), count * sizeof(TraceEvent),
                "events");
    const u64 checksum = reader.readU64("checksum");
    const u64 computed =
        fnv1a(data.events.data(), count * sizeof(TraceEvent));
    if (checksum != computed)
        fatal("event trace: '", path, "': checksum mismatch (file ",
              checksum, ", computed ", computed,
              ") — the trace is corrupt");
    return data;
}

} // namespace attila::sim
