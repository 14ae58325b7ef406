/**
 * @file
 * Shared pieces of the repository benchmark: the run options, the
 * metric records every workload fills, the window summariser behind
 * the three headline metrics, and the process probes (peak RSS,
 * per-thread CPU, the allocation counter, the host reference loop).
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/stats.hpp"

namespace perfbench {

/** One benchmark invocation, as parsed from the command line. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Corrupts one expected output, to prove the checks fire. */
    bool corrupt = false;
};

/** Where traced runs write their spans, relative to the checkout. */
inline constexpr const char* kSpanDir = ".bench_build/perfbench/out";

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * One slice of a timed window: the operations it completed, its
 * wall-clock length, the process CPU time (all threads) it used, and
 * the latency percentiles of its operations.  Medians over slices keep
 * a short burst of host noise from moving a whole run.
 */
struct Slice {
    double items = 0;
    double seconds = 0;
    double cpu_s = 0;
    double p50_us = 0;
    double p99_us = 0;
    size_t samples = 0;
};

/** A slice whose operation latencies are recorded one by one. */
Slice make_slice(double items, double seconds, double cpu_s,
                 const bitc::SampleStats& latency_us);

/** The figures of a window, each a median over its slices. */
struct Headline {
    double cpu_us_per_op = 0;
    double ops_per_s = 0;
    double p50_us = 0;
    double p99_us = 0;
    size_t slices = 0;
    size_t samples = 0;
    std::vector<double> rates;  ///< Per-slice ops/s, in window order.
};

Headline summarize(const std::vector<Slice>& slices);

/** Wall-clock and process CPU time (all threads) since construction. */
class Stopwatch {
  public:
    Stopwatch();
    double wall_s() const;
    double cpu_s() const;

  private:
    uint64_t wall0_;
    uint64_t cpu0_;
};

/**
 * What one workload run hands back: operation counts for the result
 * line, its set-up times, the untraced window and (traced runs only)
 * the traced window and the per-layer metrics.  main() turns these
 * into the end-to-end metrics, so every workload defines them alike.
 */
struct RunResult {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;  ///< Failed checks, by name.
    bitc::SampleStats setup_wall_s;
    bitc::SampleStats setup_cpu_s;
    Headline untraced;
    Headline traced;  ///< Traced runs only.
    /** Peak resident set when the untraced window ended, in MiB. */
    double untraced_rss_mib = 0;
    std::vector<Metric> layer;
    /** Counts that must repeat exactly between runs of one seed. */
    std::vector<Metric> counts;

    void problem(const std::string& what);
    void add_layer(const std::string& name, double value,
                   const std::string& unit);
    void add_setup(const Stopwatch& setup);
};

/** s.percentile(q), or 0 when @p s holds no sample. */
double percentile(const bitc::SampleStats& s, double q);
inline double median(const bitc::SampleStats& s)
{
    return percentile(s, 0.5);
}
/** a / b, or 0 when b is 0. */
double ratio(double a, double b);

/** A size field of /proc/self/status ("VmHWM", "VmRSS"), in MiB. */
double status_mib(const char* field);

/** Milliseconds a fixed integer loop takes: the host-noise probe. */
double reference_loop_ms();

/** CPU time of every thread of this process so far, in ns. */
uint64_t process_cpu_ns();

/** Kernel thread id of the caller. */
int current_tid();

/** On-CPU nanoseconds of every thread of this process, by tid. */
std::map<int, uint64_t> thread_cpu_ns();

/** Starts/stops counting global operator new calls. */
void count_allocations(bool on);
uint64_t allocations();

bool read_file(const std::string& path, std::string& out);

/** Prints one aligned "name value unit" line. */
void print_metric(const char* prefix, const Metric& m);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
