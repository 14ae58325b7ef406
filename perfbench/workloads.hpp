/**
 * @file
 * The three workloads.  Each builds its inputs from the seed, sets up
 * kSetups times (reporting the median as setup_s), measures one
 * untraced window of opts.seconds (serve-min: split over its kSetups
 * sessions), checks every output, and — in a traced run — measures a
 * second, traced window plus the per-layer timings.
 * perfbench/README.md defines every metric.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <map>
#include <string>

#include "common.hpp"
#include "concurrency/pipeline.hpp"
#include "spans.hpp"
#include "support/metrics.hpp"

namespace perfbench {

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 5;

RunResult run_serve_min(const Options& opts);
RunResult run_pipeline_bitc(const Options& opts);
RunResult run_toolchain(const Options& opts);

/**
 * The engine's own cost: ns per packet of PacketPipeline::run with
 * legacy stages over @p config (its seed included), median of three
 * runs.  A ledger or ordering break is reported into @p out.
 */
double legacy_hop_ns_per_pkt(bitc::conc::PipelineConfig config,
                             RunResult& out);

/** ns per packet of the four legacy stages applied in-process to the
 *  packet stream PacketPipeline generates from @p seed. */
double legacy_stages_ns_per_pkt(uint64_t seed);

/** Counts a build accumulates; they must repeat exactly per source. */
struct BuildStats {
    uint64_t obligations = 0;
    uint64_t proved = 0;
    uint64_t solver_queries = 0;
    uint64_t fm_eliminations = 0;
    uint64_t code_instrs = 0;  ///< Bytecode instructions emitted.
};

/**
 * Source to bytecode through parse_program, resolve_program,
 * check_program, verify_program_with_options and compile_program with
 * the `bitcc run` defaults, one span around each phase.  Adds to
 * @p stats; null (with @p error set) when a phase fails.
 */
std::unique_ptr<bitc::vm::BuiltProgram> build_phased(
    const std::string& source, uint64_t op, BuildStats& stats,
    std::string& error);

/** What histogram @p h gained between snapshots @p a and @p b. */
bitc::metrics::HistogramSnapshot histogram_delta(
    const bitc::metrics::Snapshot& a, const bitc::metrics::Snapshot& b,
    bitc::metrics::Histogram h);

/** Mean of a registry histogram (0 when empty). */
double histogram_mean(const bitc::metrics::HistogramSnapshot& h);

/** Median of a power-of-two-bucket histogram, interpolated within
 *  its bucket. */
double histogram_p50(const bitc::metrics::HistogramSnapshot& h);

/** Mean wall time of the spans named @p name, in ns (0 if none). */
double mean_span_ns(const std::map<std::string, spans::Totals>& t,
                    const char* name);

/** Prints the span totals grouped by layer (the part of each span
 *  name before the first dot), as shares of @p basis_ns. */
void print_layer_table(const std::map<std::string, spans::Totals>& t,
                       double basis_ns, const char* basis);

/**
 * Prints every per-layer metric; each time metric also as a share of
 * @p basis_ns, the workload's end-to-end time per operation, after
 * multiplying by @p per_op(metric) — how often that time is spent per
 * operation (0 for a time that is not spent per operation).
 */
void print_shares(const std::vector<Metric>& layer, double basis_ns,
                  double (*per_op)(const Metric&));

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
