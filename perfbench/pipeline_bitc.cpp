/**
 * @file
 * pipeline-bitc: the in-process PacketPipeline::run with the migrated
 * BitC stages, one worker per stage, no lookup sleep and no payload —
 * the serve-min engine without sockets, where the four VM stage calls
 * per packet dominate.  Closed loop: one run() of kPackets packets at a
 * time.  Every run's checksums and flow order must equal a legacy-stage
 * run of the same seed.
 */
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "interop/marshal.hpp"
#include "interop/packet_stages.hpp"
#include "memory/region_heap.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bitc;

/** Packets per run() call: ~30 ms at the seed's rate. */
constexpr size_t kPackets = 16384;
/** Consecutive runs per slice of the window. */
constexpr size_t kRunsPerSlice = 16;
/** Packets the per-call probes push through the stage calls. */
constexpr size_t kProbePackets = 8192;

conc::PipelineConfig
bitc_config(uint64_t seed)
{
    conc::PipelineConfig config;  // 1 worker/stage, no lookup, no payload
    config.migrated = true;
    config.seed = seed;
    return config;
}

/** What a legacy-stage run of the same seed produces. */
struct Reference {
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t route_checksum = 0;
    uint64_t header_checksum_sum = 0;
};

bool
matches(const conc::PipelineReport& r, const Reference& ref)
{
    return r.conserved() && r.generated == kPackets &&
           r.fault_dropped == 0 && r.shed == 0 && r.flows_in_order &&
           r.delivered == ref.delivered && r.dropped == ref.dropped &&
           r.route_checksum == ref.route_checksum &&
           r.header_checksum_sum == ref.header_checksum_sum;
}

bool
reference(uint64_t seed, Reference& ref)
{
    conc::PipelineConfig config = bitc_config(seed);
    config.migrated = false;
    auto pipeline = conc::PacketPipeline::create(config);
    if (!pipeline.is_ok()) return false;
    auto report = pipeline.value()->run(kPackets);
    if (!report.is_ok() || !report.value().conserved() ||
        !report.value().flows_in_order) {
        return false;
    }
    const conc::PipelineReport& r = report.value();
    ref = {r.delivered, r.dropped, r.route_checksum, r.header_checksum_sum};
    return true;
}

struct Run {
    double wall_us = 0;
    double cpu_s = 0;
    conc::PipelineReport report;
};

/** Runs back to back for @p seconds (at least one run). */
std::vector<Run>
window(conc::PacketPipeline& pipeline, const Reference& ref,
       double seconds, uint16_t span, RunResult& out, bool count)
{
    std::vector<Run> runs;
    uint64_t t0 = now_ns();
    do {
        Stopwatch watch;
        auto report = [&] {
            spans::Scope s(span, runs.size());
            return pipeline.run(kPackets);
        }();
        double wall_us = watch.wall_s() * 1e6;
        double cpu_s = watch.cpu_s();
        bool ok = report.is_ok() && matches(report.value(), ref);
        if (count) {
            out.attempted += kPackets;
            if (!ok) out.failed += kPackets;
        } else if (!ok) {
            out.problem("pipeline-bitc: traced run failed its checks");
        }
        if (report.is_ok()) {
            runs.push_back({wall_us, cpu_s, report.value()});
        }
    } while (static_cast<double>(now_ns() - t0) < seconds * 1e9);
    return runs;
}

Headline
headline(const std::vector<Run>& runs)
{
    std::vector<Slice> slices;
    for (size_t i = 0; i < runs.size(); i += kRunsPerSlice) {
        double items = 0, seconds = 0, cpu_s = 0;
        SampleStats latency_us;
        for (size_t j = i; j < std::min(runs.size(), i + kRunsPerSlice);
             ++j) {
            items += static_cast<double>(runs[j].report.generated);
            seconds += runs[j].report.elapsed_ms / 1e3;
            cpu_s += runs[j].cpu_s;
            latency_us.record(runs[j].wall_us);
        }
        // A short tail slice only counts when it is the only one.
        if (latency_us.count() == kRunsPerSlice || slices.empty()) {
            slices.push_back(make_slice(items, seconds, cpu_s, latency_us));
        }
    }
    return summarize(slices);
}

/**
 * The four calls one migrated stage makes per packet — unmarshal,
 * VM entry, region reset, marshal — timed one by one on the packet
 * stream run() generates for @p seed, and checked against the legacy
 * stages.
 */
void
stage_probe(uint64_t seed, const vm::BuiltProgram& built,
            const vm::VmConfig& config, RunResult& out)
{
    const uint16_t unmarshal = spans::name_id("interop.unmarshal_record");
    const uint16_t call = spans::name_id("vm.call_with_buffer");
    const uint16_t reset = spans::name_id("memory.reset_region");
    const uint16_t marshal = spans::name_id("interop.marshal_record");
    const uint16_t instantiate = spans::name_id("vm.instantiate");

    std::unique_ptr<vm::Vm> machine = [&] {
        spans::Scope s(instantiate, 0);
        return built.instantiate(config);
    }();
    auto* region = dynamic_cast<mem::RegionHeap*>(&machine->heap());
    Rng rng(seed);
    uint64_t calls = 0, instrs = 0;
    bool same = region != nullptr;
    for (size_t i = 0; same && i < kProbePackets; ++i) {
        std::array<uint8_t, conc::kPipeWireBytes> wire{};
        interop::generate_packet(rng, wire);
        std::array<uint8_t, conc::kPipeWireBytes> legacy = wire;
        int64_t bucket = -1;
        bool dropped = false;
        for (size_t stage = 0; stage < interop::kStageCount; ++stage) {
            std::array<int64_t, interop::kFieldCount> fields{};
            Status in = [&] {
                spans::Scope s(unmarshal, i);
                return interop::unmarshal_record(interop::packet_codec(),
                                                 wire, fields);
            }();
            int64_t range[2] = {static_cast<int64_t>(stage),
                                static_cast<int64_t>(stage + 1)};
            uint64_t before = machine->instructions_executed();
            auto result = [&] {
                spans::Scope s(call, i);
                return machine->call_with_buffer("run-stages", fields,
                                                 range);
            }();
            instrs += machine->instructions_executed() - before;
            ++calls;
            {
                spans::Scope s(reset, i);
                region->reset_region();
            }
            if (!in.is_ok() || !result.is_ok()) {
                same = false;
                break;
            }
            if (result.value() == -1) {
                dropped = true;
                break;
            }
            if (stage == interop::kClassify) bucket = result.value();
            Status back = [&] {
                spans::Scope s(marshal, i);
                return interop::marshal_record(interop::packet_codec(),
                                               fields, wire);
            }();
            same = same && back.is_ok();
        }
        bool legacy_drop = interop::legacy_validate(legacy) == 0;
        if (!legacy_drop) {
            interop::legacy_decrement_ttl(legacy);
            interop::legacy_checksum(legacy);
        }
        same = same && dropped == legacy_drop &&
               (dropped || (wire == legacy &&
                            bucket == interop::legacy_classify(legacy)));
    }
    if (!same) out.problem("pipeline-bitc: stage probe differs from legacy");
    out.add_layer("vm.stage_call_instrs",
                  ratio(static_cast<double>(instrs),
                        static_cast<double>(calls)),
                  "count");
}

}  // namespace

RunResult
run_pipeline_bitc(const Options& opts)
{
    RunResult out;
    const uint16_t run_span = spans::name_id("concurrency.PacketPipeline.run");
    std::printf("workload pipeline-bitc: closed loop, PacketPipeline::run "
                "of %zu packets at a time, migrated BitC stages, 1 "
                "worker/stage, queue 64, batch 32, lookup 0, payload 0, "
                "seed %llu\n",
                kPackets, static_cast<unsigned long long>(opts.seed));

    // Set-up, kSetups times: build the migrated stages (create), the
    // legacy reference run, and one warm-up run.
    std::unique_ptr<conc::PacketPipeline> pipeline;
    Reference ref;
    for (int s = 0; s < kSetups; ++s) {
        Stopwatch setup;
        auto created = conc::PacketPipeline::create(bitc_config(opts.seed));
        if (!created.is_ok() || !reference(opts.seed, ref)) {
            out.problem("pipeline-bitc: set-up failed");
            return out;
        }
        pipeline = std::move(created).take();
        auto warm = pipeline->run(kPackets);
        if (!warm.is_ok() || !matches(warm.value(), ref)) {
            out.problem("pipeline-bitc: warm-up run differs from legacy");
        }
        out.add_setup(setup);
    }
    if (opts.corrupt) ref.route_checksum ^= 1;

    std::vector<Run> runs =
        window(*pipeline, ref, opts.seconds, run_span, out, true);
    out.untraced = headline(runs);
    std::printf("pipeline-bitc window: %zu runs of %zu packets\n",
                runs.size(), kPackets);
    pipeline.reset();
    out.untraced_rss_mib = status_mib("VmHWM");
    if (!opts.trace) return out;

    bitc::metrics::reset();
    bitc::metrics::enable();
    bitc::trace::start();
    spans::reset();
    spans::enable(true);
    conc::PipelineConfig config = bitc_config(opts.seed);
    config.vm.count_ops = true;
    auto traced = conc::PacketPipeline::create(config);
    if (!traced.is_ok()) {
        out.problem("pipeline-bitc: traced set-up failed");
        return out;
    }
    auto snap0 = bitc::metrics::snapshot();
    std::vector<Run> truns =
        window(*traced.value(), ref, opts.seconds, run_span, out, false);
    out.traced = headline(truns);
    auto snap1 = bitc::metrics::snapshot();
    // The probes below time single calls: keep the registry and the
    // trace ring out of them, so they report the layers' own cost.
    bitc::trace::stop();
    bitc::metrics::disable();

    // Per-stage engine figures, medians over the traced runs.
    using bitc::metrics::Histogram;
    for (size_t stage = 0; stage < interop::kStageCount; ++stage) {
        SampleStats busy;
        double depth = 0;
        for (const Run& r : truns) {
            const conc::PipelineStageReport& st = r.report.stages[stage];
            double capacity = r.report.elapsed_ms * 1e6 *
                              static_cast<double>(st.workers);
            busy.record(std::clamp(
                1 - ratio(static_cast<double>(st.blocked_ns), capacity),
                0.0, 1.0));
            depth = std::max(depth,
                             static_cast<double>(st.depth_high_water));
        }
        std::string prefix =
            std::string("concurrency.") + interop::stage_name(stage);
        out.add_layer(prefix + ".busy_frac", median(busy), "ratio");
        out.add_layer(prefix + ".depth_hw", depth, "count");
    }
    SampleStats sink_ms, per_batch;
    for (const Run& r : truns) {
        sink_ms.record(static_cast<double>(r.report.sink_blocked_ns) / 1e6);
        double packets = 0, batches = 0;
        for (const auto& st : r.report.stages) {
            packets += static_cast<double>(st.packets);
            batches += static_cast<double>(st.batches);
        }
        per_batch.record(ratio(packets, batches));
    }
    auto hist = [&](Histogram which) {
        return histogram_delta(snap0, snap1, which);
    };
    out.add_layer("concurrency.sink_blocked_ms", median(sink_ms), "ms");
    out.add_layer("concurrency.pkts_per_batch", median(per_batch), "count");
    out.add_layer("concurrency.batch_us",
                  histogram_mean(hist(Histogram::kPipeBatchNs)) / 1e3, "us");
    out.add_layer("concurrency.chan_blocked_us",
                  histogram_mean(hist(Histogram::kChanBlockedNs)) / 1e3,
                  "us");
    out.add_layer("concurrency.hop_ns_per_pkt",
                  legacy_hop_ns_per_pkt(bitc_config(opts.seed), out), "ns");

    // The migrated stages as set-up builds them, phase by phase, and
    // the per-call probes on this seed's packets.
    BuildStats build;
    std::string error;
    auto built = build_phased(interop::migrated_stage_source(), 0, build,
                              error);
    if (built == nullptr) {
        out.problem("pipeline-bitc: phased build failed: " + error);
    } else {
        stage_probe(opts.seed, *built, bitc_config(opts.seed).vm, out);
    }
    spans::enable(false);
    auto totals = spans::totals();
    auto mean_ns = [&](const char* name) {
        return mean_span_ns(totals, name);
    };
    out.add_layer("interop.unmarshal_ns",
                  mean_ns("interop.unmarshal_record"), "ns");
    out.add_layer("interop.marshal_ns", mean_ns("interop.marshal_record"),
                  "ns");
    out.add_layer("interop.legacy_pkt_ns",
                  legacy_stages_ns_per_pkt(opts.seed), "ns");
    out.add_layer("vm.stage_call_ns", mean_ns("vm.call_with_buffer"), "ns");
    out.add_layer("vm.instantiate_us", mean_ns("vm.instantiate") / 1e3,
                  "us");
    out.add_layer("memory.region_reset_ns", mean_ns("memory.reset_region"),
                  "ns");
    out.add_layer("lang.parse_us", mean_ns("lang.parse_program") / 1e3,
                  "us");
    out.add_layer("lang.resolve_us", mean_ns("lang.resolve_program") / 1e3,
                  "us");
    out.add_layer("types.check_us", mean_ns("types.check_program") / 1e3,
                  "us");
    out.add_layer("verify.verify_us", mean_ns("verify.verify_program") / 1e3,
                  "us");
    out.add_layer("verify.obligations",
                  static_cast<double>(build.obligations), "count");
    out.add_layer("verify.proved", static_cast<double>(build.proved),
                  "count");
    out.add_layer("verify.solver_queries",
                  static_cast<double>(build.solver_queries), "count");
    out.add_layer("verify.fm_eliminations",
                  static_cast<double>(build.fm_eliminations), "count");
    out.add_layer("vm.compile_us", mean_ns("vm.compile_program") / 1e3,
                  "us");
    out.add_layer("vm.code_instrs", static_cast<double>(build.code_instrs),
                  "count");

    std::string path = std::string(kSpanDir) + "/spans-pipeline-bitc.tsv";
    size_t kept = spans::write(path);
    std::printf("spans: %zu written to %s\n", kept, path.c_str());

    // Each packet makes four stage calls, on four threads at once; the
    // slowest stage sets the rate, so shares here can sum past 100%.
    // The probes ran with the registry and ring off, so the basis is
    // the untraced window's time per packet.
    double packet_ns = ratio(1e9, out.untraced.ops_per_s);
    std::printf("per-layer (pipeline-bitc), as shares of the untraced "
                "wall time per packet (%.1f ns; 4 stage calls per packet, "
                "stages run in parallel):\n",
                packet_ns);
    print_shares(out.layer, packet_ns, [](const Metric& m) {
        bool per_call = m.name == "interop.unmarshal_ns" ||
                        m.name == "interop.marshal_ns" ||
                        m.name == "vm.stage_call_ns" ||
                        m.name == "memory.region_reset_ns";
        bool per_packet = m.name == "interop.legacy_pkt_ns" ||
                          m.name == "concurrency.hop_ns_per_pkt";
        return per_call     ? static_cast<double>(interop::kStageCount)
               : per_packet ? 1.0
                            : 0.0;
    });
    double runs_ns = 0;
    if (auto it = totals.find("concurrency.PacketPipeline.run");
        it != totals.end()) {
        runs_ns = static_cast<double>(it->second.wall_ns);
    }
    print_layer_table(totals, runs_ns, "traced run() time");
    return out;
}

}  // namespace perfbench
