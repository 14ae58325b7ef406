/**
 * @file
 * perfbench — one run of one workload of the repository benchmark.
 *
 *   perfbench --workload serve-min|pipeline-bitc|toolchain --seed N
 *             --seconds S --trace 0|1 [--corrupt]
 *
 * Prints the run's description, the host reference loop before and
 * after, every metric by name with its unit, and as its last line one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.  With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 they
 * are the per-layer ones (the traced window's end-to-end figures are
 * printed above the result line under the same names).  Exits 1 when
 * any output check fails; --corrupt corrupts one expected output so
 * the self-test can prove that it does.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/**
 * End-to-end metrics, printed by every workload (BENCHMARK.json).  They
 * are CPU-time and memory figures: on a shared host whose steal time
 * swings between runs, wall-clock rates and latencies move by tens of
 * percent while CPU per operation moves by a few, so the wall-clock
 * figures are reported beside them ("wall.*") but not gated.
 */
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/**
 * Per-layer metrics, printed by every traced run (BENCHMARK.json).  A
 * workload that does not exercise a layer reports 0 for its figures.
 */
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"net.client_send_ns", "ns"},
    {"net.client_wait_us", "us"},
    {"net.server_residence_us", "us"},
    {"net.wire_decode_ns", "ns"},
    {"net.wire_encode_ns", "ns"},
    {"net.frames_per_writev", "count"},
    {"net.allocs_per_frame", "count"},
    {"net.server_cpu_us_per_frame", "us"},
    {"net.busiest_thread_busy", "ratio"},
    {"net.edge_rejects", "count"},
    {"net.teardowns_sick", "count"},
    {"net.protocol_errors", "count"},
    {"support.pool_hits", "count"},
    {"support.pool_misses", "count"},
    {"concurrency.hop_ns_per_pkt", "ns"},
    {"concurrency.validate.busy_frac", "ratio"},
    {"concurrency.dec-ttl.busy_frac", "ratio"},
    {"concurrency.checksum.busy_frac", "ratio"},
    {"concurrency.classify.busy_frac", "ratio"},
    {"concurrency.validate.depth_hw", "count"},
    {"concurrency.dec-ttl.depth_hw", "count"},
    {"concurrency.checksum.depth_hw", "count"},
    {"concurrency.classify.depth_hw", "count"},
    {"concurrency.sink_blocked_ms", "ms"},
    {"concurrency.pkts_per_batch", "count"},
    {"concurrency.batch_us", "us"},
    {"concurrency.chan_blocked_us", "us"},
    {"interop.unmarshal_ns", "ns"},
    {"interop.marshal_ns", "ns"},
    {"interop.legacy_pkt_ns", "ns"},
    {"vm.stage_call_ns", "ns"},
    {"vm.stage_call_instrs", "count"},
    {"vm.compile_us", "us"},
    {"vm.code_instrs", "count"},
    {"vm.instantiate_us", "us"},
    {"vm.call_us", "us"},
    {"vm.instructions", "count"},
    {"vm.ns_per_instr", "ns"},
    {"memory.region_reset_ns", "ns"},
    {"memory.allocations", "count"},
    {"memory.collections", "count"},
    {"memory.gc_pause_us", "us"},
    {"verify.verify_us", "us"},
    {"verify.obligations", "count"},
    {"verify.proved", "count"},
    {"verify.solver_queries", "count"},
    {"verify.fm_eliminations", "count"},
    {"types.check_us", "us"},
    {"lang.parse_us", "us"},
    {"lang.resolve_us", "us"},
    {"build_ms", "ms"},
    {"exec_ms", "ms"},
    {"proved_frac", "ratio"},
    {"failed_frac", "ratio"},
    {"wall.ops_per_s", "1/s"},
    {"wall.latency_p50_us", "us"},
    {"wall.latency_p99_us", "us"},
    {"wall.setup_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload serve-min|pipeline-bitc|"
                 "toolchain --seed N --seconds S --trace 0|1 "
                 "[--corrupt]\n");
    return 2;
}

bool
parse(int argc, char** argv, Options& opts)
{
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto value = [&]() -> const char* {
            return a + 1 < argc ? argv[++a] : nullptr;
        };
        const char* v = nullptr;
        if (arg == "--corrupt") {
            opts.corrupt = true;
            continue;
        }
        if ((v = value()) == nullptr) return false;
        if (arg == "--workload") {
            opts.workload = v;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace") {
            opts.trace = std::strcmp(v, "1") == 0;
        } else {
            return false;
        }
    }
    return !opts.workload.empty() && opts.seconds > 0;
}

/** Looks up @p name in @p metrics; adds it as 0 when the workload
 *  has no such figure.  Units must agree with the table. */
Metric
pick(const std::vector<Metric>& metrics, const char* name,
     const char* unit, RunResult& out)
{
    for (const Metric& m : metrics) {
        if (m.name != name) continue;
        if (m.unit != unit) out.problem(std::string("unit of ") + name);
        if (!std::isfinite(m.value)) {
            out.problem(std::string("non-finite ") + name);
            return {name, 0, unit};
        }
        return m;
    }
    return {name, 0, unit};
}

/** cpu_us_per_op of @p w, and the run's set-up CPU time and RSS. */
std::vector<Metric>
end_to_end(const Headline& w, const RunResult& out, double rss)
{
    return {{"cpu_us_per_op", w.cpu_us_per_op, "us"},
            {"setup_s", median(out.setup_cpu_s), "s"},
            {"peak_rss_mib", rss, "MiB"}};
}

/** The wall-clock figures of @p w: medians over its slices. */
std::vector<Metric>
wall_clock(const Headline& w, const RunResult& out)
{
    std::printf("  %zu slices, %zu latency samples; ops/s by slice:",
                w.slices, w.samples);
    for (double r : w.rates) std::printf(" %.6g", r);
    std::printf("\n");
    return {{"wall.ops_per_s", w.ops_per_s, "1/s"},
            {"wall.latency_p50_us", w.p50_us, "us"},
            {"wall.latency_p99_us", w.p99_us, "us"},
            {"wall.setup_s", median(out.setup_wall_s), "s"}};
}

std::vector<Metric>
ordered(const std::vector<Metric>& metrics,
        const std::vector<std::pair<const char*, const char*>>& table,
        RunResult& out)
{
    std::vector<Metric> result;
    for (const auto& [name, unit] : table) {
        result.push_back(pick(metrics, name, unit, out));
    }
    return result;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opts;
    if (!parse(argc, argv, opts)) return usage();
    RunResult (*run)(const Options&) = nullptr;
    if (opts.workload == "serve-min") run = run_serve_min;
    if (opts.workload == "pipeline-bitc") run = run_pipeline_bitc;
    if (opts.workload == "toolchain") run = run_toolchain;
    if (run == nullptr) return usage();
    std::error_code ec;
    std::filesystem::create_directories(kSpanDir, ec);

    double rss_before = status_mib("VmRSS");
    double ref_before = reference_loop_ms();
    RunResult out = run(opts);
    double ref_after = reference_loop_ms();
    out.add_layer("failed_frac",
                  ratio(static_cast<double>(out.failed),
                        static_cast<double>(out.attempted)),
                  "ratio");

    std::printf("host reference loop: %.3f ms before, %.3f ms after "
                "(noise record, folded into no metric)\n",
                ref_before, ref_after);
    std::printf("resident set before the workload: %.3f MiB; set-up CPU "
                "s over %zu set-ups: min %.6g median %.6g max %.6g\n",
                rss_before, out.setup_cpu_s.count(),
                percentile(out.setup_cpu_s, 0), median(out.setup_cpu_s),
                percentile(out.setup_cpu_s, 1));
    std::vector<Metric> e2e =
        ordered(end_to_end(out.untraced, out, out.untraced_rss_mib),
                kEndToEnd, out);
    std::printf("end-to-end (untraced):\n");
    for (const Metric& m : e2e) print_metric("  ", m);
    std::printf("wall clock (untraced; reported, not gated):\n");
    std::vector<Metric> wall = wall_clock(out.untraced, out);
    for (const Metric& m : wall) print_metric("  ", m);
    std::vector<Metric> layer;
    if (opts.trace) {
        std::vector<Metric> traced =
            ordered(end_to_end(out.traced, out, status_mib("VmHWM")),
                    kEndToEnd, out);
        std::printf("end-to-end (traced):\n");
        for (const Metric& m : traced) print_metric("  ", m);
        std::printf("wall clock (traced):\n");
        for (const Metric& m : wall_clock(out.traced, out)) {
            print_metric("  ", m);
        }
        out.layer.insert(out.layer.end(), wall.begin(), wall.end());
        out.add_layer("trace.overhead_frac",
                      ratio(traced[0].value, e2e[0].value) - 1, "ratio");
        layer = ordered(out.layer, kPerLayer, out);
        std::printf("per-layer:\n");
        for (const Metric& m : layer) print_metric("  ", m);
    }
    if (!out.counts.empty()) {
        std::printf("counts (repeat exactly for one seed):");
        for (const Metric& m : out.counts) {
            std::printf(" %s=%.17g", m.name.c_str(), m.value);
        }
        std::printf("\n");
    }
    if (out.attempted == 0) out.problem("no operation attempted");
    for (const std::string& p : out.problems) {
        std::printf("CHECK FAILED: %s\n", p.c_str());
    }
    bool correct = out.problems.empty() && out.failed == 0;

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    const std::vector<Metric>& metrics = opts.trace ? layer : e2e;
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
