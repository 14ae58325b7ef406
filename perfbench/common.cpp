#include "common.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <new>
#include <sstream>


// ---------------------------------------------------------------------------
// Process-wide allocation counter.  Every operator new in every thread
// (server IO loop, sink, stage workers, clients) goes through here, so
// allocations per frame cover the whole data path.  Counting is gated
// by one relaxed flag so the untraced window pays a load and a branch.

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void*
counted_alloc(std::size_t n)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void*
counted_alloc(std::size_t n, std::align_val_t align)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    size_t a = static_cast<size_t>(align);
    size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
    void* p = std::aligned_alloc(a, rounded);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a)
{
    return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a)
{
    return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench {

void
RunResult::problem(const std::string& what)
{
    problems.push_back(what);
}

void
RunResult::add_setup(const Stopwatch& setup)
{
    setup_wall_s.record(setup.wall_s());
    setup_cpu_s.record(setup.cpu_s());
}

void
RunResult::add_layer(const std::string& name, double value,
                     const std::string& unit)
{
    layer.push_back({name, value, unit});
}

double
percentile(const bitc::SampleStats& s, double q)
{
    return s.count() == 0 ? 0 : s.percentile(q);
}

double
ratio(double a, double b)
{
    return b == 0 ? 0 : a / b;
}

Slice
make_slice(double items, double seconds, double cpu_s,
           const bitc::SampleStats& latency_us)
{
    return {items,
            seconds,
            cpu_s,
            percentile(latency_us, 0.50),
            percentile(latency_us, 0.99),
            latency_us.count()};
}

Headline
summarize(const std::vector<Slice>& slices)
{
    bitc::SampleStats cpu, rates, p50s, p99s;
    Headline h;
    for (const Slice& s : slices) {
        if (s.seconds <= 0 || s.items <= 0 || s.samples == 0) continue;
        cpu.record(s.cpu_s * 1e6 / s.items);
        h.rates.push_back(s.items / s.seconds);
        rates.record(h.rates.back());
        p50s.record(s.p50_us);
        p99s.record(s.p99_us);
        h.samples += s.samples;
        ++h.slices;
    }
    h.cpu_us_per_op = median(cpu);
    h.ops_per_s = median(rates);
    h.p50_us = median(p50s);
    h.p99_us = median(p99s);
    return h;
}

Stopwatch::Stopwatch() : wall0_(bitc::now_ns()), cpu0_(process_cpu_ns()) {}

double
Stopwatch::wall_s() const
{
    return static_cast<double>(bitc::now_ns() - wall0_) / 1e9;
}

double
Stopwatch::cpu_s() const
{
    return static_cast<double>(process_cpu_ns() - cpu0_) / 1e9;
}

double
status_mib(const char* field)
{
    std::string key = std::string(field) + ":";
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
        }
    }
    return 0;
}

double
reference_loop_ms()
{
    uint64_t start = bitc::now_ns();
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = x;
    (void)sink;
    return static_cast<double>(bitc::now_ns() - start) / 1e6;
}

uint64_t
process_cpu_ns()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

int
current_tid()
{
    return static_cast<int>(::syscall(SYS_gettid));
}

std::map<int, uint64_t>
thread_cpu_ns()
{
    std::map<int, uint64_t> out;
    DIR* dir = ::opendir("/proc/self/task");
    if (dir == nullptr) return out;
    while (dirent* entry = ::readdir(dir)) {
        if (entry->d_name[0] == '.') continue;
        int tid = std::atoi(entry->d_name);
        std::string path = std::string("/proc/self/task/") +
                           entry->d_name + "/schedstat";
        std::ifstream in(path);
        uint64_t on_cpu = 0;
        if (in >> on_cpu) out[tid] = on_cpu;
    }
    ::closedir(dir);
    return out;
}

void
count_allocations(bool on)
{
    g_count_allocs.store(on, std::memory_order_relaxed);
}

uint64_t
allocations()
{
    return g_allocs.load(std::memory_order_relaxed);
}

bool
read_file(const std::string& path, std::string& out)
{
    std::ifstream in(path);
    if (!in) return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

void
print_metric(const char* prefix, const Metric& m)
{
    std::printf("%s%-34s %16.6g %s\n", prefix, m.name.c_str(), m.value,
                m.unit.c_str());
}

}  // namespace perfbench
