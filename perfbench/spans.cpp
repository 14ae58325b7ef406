#include "spans.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "support/stats.hpp"

namespace perfbench::spans {
namespace {

constexpr size_t kMaxNames = 64;
/** Raw records kept for the written file (48 bytes each). */
constexpr size_t kKeepCap = size_t{1} << 18;

struct Record {
    uint64_t id;
    uint64_t parent;  ///< 0 = root.
    uint64_t op;
    uint64_t start_ns;
    uint64_t end_ns;
    uint16_t name;
};

struct Open {
    uint16_t name;
    uint64_t id;
    uint64_t op;
    uint64_t start_ns;
    uint64_t child_ns;
};

struct ThreadBuffer {
    uint64_t thread_index = 0;
    uint64_t next_seq = 0;
    std::vector<Open> stack;
    std::vector<Record> kept;
    std::array<Totals, kMaxNames> totals{};

    uint64_t next_id() { return (thread_index << 40) | ++next_seq; }
};

std::atomic<bool> g_on{false};
std::atomic<size_t> g_kept{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
std::array<const char*, kMaxNames> g_names{};          // guarded by g_mu
size_t g_name_count = 0;                               // guarded by g_mu

ThreadBuffer&
local()
{
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
        std::lock_guard<std::mutex> lock(g_mu);
        g_buffers.push_back(std::make_unique<ThreadBuffer>());
        buffer = g_buffers.back().get();
        buffer->thread_index = g_buffers.size();
        buffer->stack.reserve(16);
    }
    return *buffer;
}

void
finish(ThreadBuffer& tb, uint16_t name, uint64_t id, uint64_t parent,
       uint64_t op, uint64_t start, uint64_t end, uint64_t child_ns)
{
    uint64_t wall = end - start;
    Totals& t = tb.totals[name];
    ++t.count;
    t.wall_ns += wall;
    t.self_ns += wall > child_ns ? wall - child_ns : 0;
    if (g_kept.load(std::memory_order_relaxed) < kKeepCap) {
        g_kept.fetch_add(1, std::memory_order_relaxed);
        tb.kept.push_back({id, parent, op, start, end, name});
    }
}

}  // namespace

void
enable(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_on.load(std::memory_order_relaxed);
}

uint16_t
name_id(const char* name)
{
    std::lock_guard<std::mutex> lock(g_mu);
    for (size_t i = 0; i < g_name_count; ++i) {
        if (std::strcmp(g_names[i], name) == 0) {
            return static_cast<uint16_t>(i);
        }
    }
    if (g_name_count == kMaxNames) {
        std::fprintf(stderr, "perfbench: too many span names\n");
        std::abort();
    }
    g_names[g_name_count] = name;
    return static_cast<uint16_t>(g_name_count++);
}

Scope::Scope(uint16_t name, uint64_t op)
    : on_(g_on.load(std::memory_order_relaxed))
{
    if (!on_) return;
    ThreadBuffer& tb = local();
    tb.stack.push_back({name, tb.next_id(), op, bitc::now_ns(), 0});
}

Scope::~Scope()
{
    if (!on_) return;
    uint64_t end = bitc::now_ns();
    ThreadBuffer& tb = local();
    Open open = tb.stack.back();
    tb.stack.pop_back();
    uint64_t parent = 0;
    if (!tb.stack.empty()) {
        tb.stack.back().child_ns += end - open.start_ns;
        parent = tb.stack.back().id;
    }
    finish(tb, open.name, open.id, parent, open.op, open.start_ns, end,
           open.child_ns);
}

void
record(uint16_t name, uint64_t op, uint64_t start_ns, uint64_t end_ns)
{
    if (!enabled()) return;
    ThreadBuffer& tb = local();
    finish(tb, name, tb.next_id(), 0, op, start_ns, end_ns, 0);
}

std::map<std::string, Totals>
totals()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::map<std::string, Totals> out;
    for (const auto& tb : g_buffers) {
        for (size_t n = 0; n < g_name_count; ++n) {
            const Totals& t = tb->totals[n];
            if (t.count == 0) continue;
            Totals& sum = out[g_names[n]];
            sum.count += t.count;
            sum.wall_ns += t.wall_ns;
            sum.self_ns += t.self_ns;
        }
    }
    return out;
}

void
reset()
{
    std::lock_guard<std::mutex> lock(g_mu);
    for (auto& tb : g_buffers) {
        tb->kept.clear();
        tb->totals = {};
    }
    g_kept.store(0, std::memory_order_relaxed);
}

size_t
write(const std::string& path)
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return 0;
    std::lock_guard<std::mutex> lock(g_mu);
    std::fprintf(out, "# name\tid\tparent\top\tstart_ns\tend_ns\n");
    size_t written = 0;
    for (const auto& tb : g_buffers) {
        for (const Record& r : tb->kept) {
            std::fprintf(out, "%s\t%llx\t%llx\t%llx\t%llu\t%llu\n",
                         g_names[r.name],
                         static_cast<unsigned long long>(r.id),
                         static_cast<unsigned long long>(r.parent),
                         static_cast<unsigned long long>(r.op),
                         static_cast<unsigned long long>(r.start_ns),
                         static_cast<unsigned long long>(r.end_ns));
            ++written;
        }
    }
    std::fclose(out);
    return written;
}

}  // namespace perfbench::spans
