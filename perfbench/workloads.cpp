#include "workloads.hpp"

#include <array>
#include <cstdio>
#include <vector>

#include "interop/packet_stages.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace perfbench {

bitc::metrics::HistogramSnapshot
histogram_delta(const bitc::metrics::Snapshot& a,
                const bitc::metrics::Snapshot& b, bitc::metrics::Histogram h)
{
    bitc::metrics::HistogramSnapshot d = b.histogram(h);
    const bitc::metrics::HistogramSnapshot& base = a.histogram(h);
    d.count -= base.count;
    d.sum -= base.sum;
    for (size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] -= base.buckets[i];
    }
    return d;
}

double
histogram_mean(const bitc::metrics::HistogramSnapshot& h)
{
    return ratio(static_cast<double>(h.sum), static_cast<double>(h.count));
}

double
histogram_p50(const bitc::metrics::HistogramSnapshot& h)
{
    if (h.count == 0) return 0;
    double half = static_cast<double>(h.count) / 2;
    double below = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
        double n = static_cast<double>(h.buckets[b]);
        if (below + n >= half && n > 0) {
            double lo = static_cast<double>(
                bitc::metrics::bucket_lower_bound(b));
            double hi = b == 0 ? 0 : 2 * lo;
            return lo + (hi - lo) * (half - below) / n;
        }
        below += n;
    }
    return 0;
}

double
mean_span_ns(const std::map<std::string, spans::Totals>& t,
             const char* name)
{
    auto it = t.find(name);
    return it == t.end() ? 0.0
                         : ratio(static_cast<double>(it->second.wall_ns),
                                 static_cast<double>(it->second.count));
}

void
print_shares(const std::vector<Metric>& layer, double basis_ns,
             double (*per_op)(const Metric&))
{
    for (const Metric& m : layer) {
        double scale = m.unit == "ns"   ? 1
                       : m.unit == "us" ? 1e3
                       : m.unit == "ms" ? 1e6
                                        : 0;
        double share = ratio(m.value * scale * per_op(m), basis_ns);
        if (scale * per_op(m) > 0) {
            std::printf("  %-34s %14.6g %-6s %7.1f%%\n", m.name.c_str(),
                        m.value, m.unit.c_str(), 100 * share);
        } else {
            std::printf("  %-34s %14.6g %-6s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }
}

void
print_layer_table(const std::map<std::string, spans::Totals>& t,
                  double basis_ns, const char* basis)
{
    std::map<std::string, spans::Totals> by_layer;
    for (const auto& [name, totals] : t) {
        if (name.rfind("e2e.", 0) == 0) continue;  // not a layer call
        std::string layer = name.substr(0, name.find('.'));
        spans::Totals& sum = by_layer[layer];
        sum.count += totals.count;
        sum.wall_ns += totals.wall_ns;
        sum.self_ns += totals.self_ns;
    }
    std::printf("spans by layer (self time as a share of %s):\n", basis);
    for (const auto& [layer, totals] : by_layer) {
        std::printf("  %-14s %10llu spans %12.3f ms self %7.1f%%\n",
                    layer.c_str(),
                    static_cast<unsigned long long>(totals.count),
                    static_cast<double>(totals.self_ns) / 1e6,
                    100 * ratio(static_cast<double>(totals.self_ns),
                                basis_ns));
    }
    std::printf("spans by call:\n");
    for (const auto& [name, totals] : t) {
        std::printf("  %-34s %10llu x %12.3f us mean\n", name.c_str(),
                    static_cast<unsigned long long>(totals.count),
                    ratio(static_cast<double>(totals.wall_ns) / 1e3,
                          static_cast<double>(totals.count)));
    }
}

double
legacy_hop_ns_per_pkt(bitc::conc::PipelineConfig config, RunResult& out)
{
    constexpr size_t kPackets = size_t{1} << 16;
    config.migrated = false;
    auto pipeline = bitc::conc::PacketPipeline::create(config);
    if (!pipeline.is_ok()) {
        out.problem("legacy pipeline: " +
                    pipeline.status().to_string());
        return 0;
    }
    bitc::SampleStats per_packet;
    for (int rep = 0; rep < 3; ++rep) {
        auto report = pipeline.value()->run(kPackets);
        if (!report.is_ok() || !report.value().conserved() ||
            !report.value().flows_in_order) {
            out.problem("legacy pipeline run failed its checks");
            return 0;
        }
        per_packet.record(report.value().elapsed_ms * 1e6 / kPackets);
    }
    return median(per_packet);
}

double
legacy_stages_ns_per_pkt(uint64_t seed)
{
    constexpr size_t kPackets = size_t{1} << 16;
    using Wire = std::array<uint8_t, bitc::conc::kPipeWireBytes>;
    std::vector<Wire> packets(kPackets);
    bitc::Rng rng(seed);
    for (Wire& w : packets) bitc::interop::generate_packet(rng, w);
    int64_t witness = 0;
    uint64_t t0 = bitc::now_ns();
    for (Wire& w : packets) {
        if (bitc::interop::legacy_validate(w) == 0) continue;
        bitc::interop::legacy_decrement_ttl(w);
        bitc::interop::legacy_checksum(w);
        witness += bitc::interop::legacy_classify(w);
    }
    uint64_t elapsed = bitc::now_ns() - t0;
    // Keeps the loop's results observable so it cannot be dropped.
    volatile int64_t sink = witness;
    (void)sink;
    return static_cast<double>(elapsed) / kPackets;
}

}  // namespace perfbench
