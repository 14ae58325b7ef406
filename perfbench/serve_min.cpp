/**
 * @file
 * serve-min: the `bitcc --serve` default engine (legacy stages, one
 * worker per stage, no lookup sleep, no payload) behind an in-process
 * NetServer on 127.0.0.1 — real loopback sockets and epoll.  Closed
 * loop: 4 connections, one client thread each, 16 frames in flight per
 * connection, because this server's clients wait for their answers.
 * Frames are 24-byte data frames from interop::generate_packet; every
 * answer is checked against the legacy stages applied in-process.
 */
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <thread>
#include <vector>

#include "concurrency/pipeline.hpp"
#include "interop/packet_stages.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "support/buffer_pool.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bitc;

constexpr size_t kConns = 4;
constexpr size_t kInflight = 16;
/** Answers each connection waits for while setting up (warm-up). */
constexpr size_t kWarmupAnswers = 1000;
constexpr double kSliceSeconds = 0.5;
constexpr uint64_t kRecvTimeoutMs = 5000;
constexpr size_t kWire = conc::kPipeWireBytes;

struct Names {
    uint16_t client, generate, send, recv, check, frame;
};

uint64_t
op_id(size_t conn, uint32_t flow)
{
    return (static_cast<uint64_t>(conn) << 32) | flow;
}

uint64_t
client_seed(uint64_t seed, size_t conn)
{
    return seed * 1000003 + conn;
}

/** What the legacy stages, run in-process, answer for @p sent. */
struct Answer {
    net::FrameType type = net::FrameType::kResponse;
    std::array<uint8_t, kWire + 8> bytes{};
    size_t len = 0;
};

Answer
reference_answer(const std::array<uint8_t, kWire>& sent)
{
    Answer a;
    std::memcpy(a.bytes.data(), sent.data(), kWire);
    a.len = kWire;
    std::span<uint8_t> wire(a.bytes.data(), kWire);
    if (interop::legacy_validate(wire) == 0) {
        a.type = net::FrameType::kDrop;
        return a;
    }
    interop::legacy_decrement_ttl(wire);
    interop::legacy_checksum(wire);
    uint64_t bucket =
        static_cast<uint64_t>(interop::legacy_classify(wire));
    for (int shift = 56; shift >= 0; shift -= 8) {
        a.bytes[a.len++] = static_cast<uint8_t>(bucket >> shift);
    }
    return a;
}

/** Latencies below this many microseconds land in 1-us buckets. */
constexpr size_t kLatencyBuckets = 16384;

struct FreeDeleter {
    void operator()(uint32_t* p) const { std::free(p); }
};

/**
 * One connection's record of a timed window: a latency histogram per
 * slice.  Its memory is fixed by the window length, not by how many
 * frames are answered, so it does not move peak_rss_mib; calloc leaves
 * the buckets no frame lands in untouched.
 */
struct WindowLog {
    uint64_t t0 = 0;
    size_t slices = 0;
    std::unique_ptr<uint32_t, FreeDeleter> buckets;  ///< slices x buckets
    std::vector<std::vector<uint32_t>> long_us;      ///< Past the buckets.
    std::vector<uint64_t> answered;                  ///< By slice.
    uint64_t sent = 0;
    uint64_t failed = 0;

    void reset(uint64_t start, size_t n) {
        *this = WindowLog{};
        t0 = start;
        slices = n;
        buckets.reset(static_cast<uint32_t*>(
            std::calloc(n * kLatencyBuckets, sizeof(uint32_t))));
        if (n > 0 && !buckets) throw std::bad_alloc();
        long_us.resize(n);
        answered.resize(n);
    }

    void record(uint64_t now, uint64_t latency_ns) {
        size_t slice = static_cast<size_t>(
            static_cast<double>(now - t0) / (kSliceSeconds * 1e9));
        if (slice >= slices) return;  // drained after the window
        ++answered[slice];
        uint64_t us = latency_ns / 1000;
        if (us < kLatencyBuckets) {
            ++buckets.get()[slice * kLatencyBuckets + us];
        } else {
            long_us[slice].push_back(static_cast<uint32_t>(
                std::min<uint64_t>(us, UINT32_MAX)));
        }
    }
};

/** One closed-loop connection and the frames it has in flight. */
class Client {
  public:
    Client(size_t index, uint64_t seed, const Names& names)
        : index_(index), rng_(seed), names_(names) {}

    bool connect(uint16_t port) {
        auto c = net::NetClient::connect("127.0.0.1", port);
        if (!c.is_ok()) return false;
        conn_.emplace(std::move(c).take());
        return true;
    }

    /**
     * Keeps kInflight frames outstanding until @p answers frames have
     * been sent (warm-up, @p stop null) or @p stop is set, then drains
     * every answer.  False on an IO error; the frames still in flight
     * then count as failed.
     */
    bool loop(size_t answers, const std::atomic<bool>* stop,
              WindowLog* log) {
        spans::Scope whole(names_.client, index_);
        size_t issued = 0;
        auto more = [&] {
            return stop != nullptr
                       ? !stop->load(std::memory_order_relaxed)
                       : issued < answers;
        };
        while (true) {
            while (outstanding_ < kInflight && more()) {
                if (!send_one(log)) return lose(log);
                ++issued;
            }
            if (outstanding_ == 0) return true;
            if (!recv_one(log)) return lose(log);
        }
    }

    void close() {
        if (conn_) conn_->close();
    }

    int tid = 0;
    uint64_t sent_total = 0;
    uint64_t failed_total = 0;
    /** Corrupts the expectation of the next answer in a window. */
    bool corrupt_next = false;

  private:
    struct Slot {
        std::array<uint8_t, kWire> wire{};
        uint64_t sent_ns = 0;
        uint32_t flow = 0;
        bool pending = false;
    };

    /** Flow ids count up, at most kInflight are in flight, so a ring
     *  of kSlots holds every frame in flight; a slot still pending
     *  when its turn comes again lost its answer. */
    static constexpr size_t kSlots = 4 * kInflight;

    bool lose(WindowLog* log) {
        failed_total += outstanding_;
        if (log != nullptr) log->failed += outstanding_;
        outstanding_ = 0;
        return false;
    }

    void fail(WindowLog* log) {
        ++failed_total;
        if (log != nullptr) ++log->failed;
    }

    bool send_one(WindowLog* log) {
        uint32_t flow = next_flow_;
        next_flow_ = next_flow_ % 0xfffe + 1;
        Slot& slot = slots_[flow % kSlots];
        if (slot.pending) {  // its answer never came back
            fail(log);
            slot.pending = false;
            --outstanding_;
        }
        {
            spans::Scope s(names_.generate, op_id(index_, flow));
            interop::generate_packet(rng_, slot.wire);
        }
        slot.flow = flow;
        slot.sent_ns = now_ns();
        Status st = [&] {
            spans::Scope s(names_.send, op_id(index_, flow));
            return conn_->send_data(flow, /*deadline_ms=*/0, slot.wire);
        }();
        if (!st.is_ok()) return false;
        slot.pending = true;
        ++outstanding_;
        ++sent_total;
        if (log != nullptr) ++log->sent;
        return true;
    }

    bool recv_one(WindowLog* log) {
        auto got = [&] {
            spans::Scope s(names_.recv, op_id(index_, 0));
            return conn_->recv_frame_view(kRecvTimeoutMs);
        }();
        uint64_t now = now_ns();
        if (!got.is_ok()) return false;
        const net::FrameView& f = got.value();
        Slot& slot = slots_[f.flow % kSlots];
        if (!slot.pending || slot.flow != f.flow) {
            fail(log);  // an answer to no frame in flight
            return true;
        }
        slot.pending = false;
        --outstanding_;
        bool ok = [&] {
            spans::Scope s(names_.check, op_id(index_, f.flow));
            Answer want = reference_answer(slot.wire);
            if (log != nullptr && corrupt_next) {
                want.bytes[0] ^= 0xff;
                corrupt_next = false;
            }
            return f.type == want.type && f.payload.size() == want.len &&
                   std::memcmp(f.payload.data(), want.bytes.data(),
                               want.len) == 0;
        }();
        if (!ok) fail(log);
        if (log != nullptr) {
            log->record(now, now - slot.sent_ns);
            spans::record(names_.frame, op_id(index_, f.flow),
                          slot.sent_ns, now);
        }
        return true;
    }

    size_t index_;
    Rng rng_;
    std::array<Slot, kSlots> slots_{};  ///< Indexed by flow % kSlots.
    const Names& names_;
    std::optional<net::NetClient> conn_;
    uint32_t next_flow_ = 1;
    size_t outstanding_ = 0;
};

/**
 * One server plus its four client threads.  start() is the set-up
 * (server start, connects, warm-up); window() is one timed window;
 * finish() quits the clients and stops the server.
 */
class Session {
  public:
    Session(uint64_t seed, const Names& names) : logs(kConns) {
        for (size_t c = 0; c < kConns; ++c) {
            clients.push_back(std::make_unique<Client>(
                c, client_seed(seed, c), names));
        }
    }

    ~Session() { finish(); }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    bool start(std::string& error) {
        // The `bitcc --serve` default engine; the server forces
        // forward_drops on so every frame is answered.
        auto server = net::NetServer::create(
            options::ServeSpec{},
            conc::config_from_spec(options::PipelineSpec{}));
        if (!server.is_ok()) {
            error = server.status().to_string();
            return false;
        }
        server_ = std::move(server).take();
        if (Status st = server_->start(); !st.is_ok()) {
            error = st.to_string();
            return false;
        }
        uint16_t port = server_->port();
        for (size_t c = 0; c < kConns; ++c) {
            threads_.emplace_back([this, c, port] { client_main(c, port); });
        }
        wait_ready();
        for (size_t c = 0; c < kConns; ++c) {
            if (!io_ok_[c]) error = "client connect or warm-up failed";
        }
        return error.empty();
    }

    /**
     * Runs the clients for @p seconds; their logs fill `logs`, and the
     * process CPU time of each full slice fills `slice_cpu_s`.
     */
    void window(double seconds) {
        size_t full = static_cast<size_t>(seconds / kSliceSeconds);
        uint64_t t0 = now_ns();
        for (WindowLog& log : logs) log.reset(t0, full);
        slice_cpu_s.clear();
        stop_.store(false);
        uint64_t cpu = process_cpu_ns();
        command(Command::kWindow);
        for (size_t k = 1; k <= full; ++k) {
            sleep_until(t0 + static_cast<uint64_t>(k * kSliceSeconds * 1e9));
            uint64_t now_cpu = process_cpu_ns();
            slice_cpu_s.push_back(static_cast<double>(now_cpu - cpu) / 1e9);
            cpu = now_cpu;
        }
        sleep_until(t0 + static_cast<uint64_t>(seconds * 1e9));
        stop_.store(true);
        wait_ready();
    }

    /** Quits the clients and stops the server (idempotent). */
    net::ServerStats finish() {
        if (!threads_.empty()) {
            command(Command::kQuit);
            for (std::thread& t : threads_) t.join();
            threads_.clear();
        }
        if (server_) server_->stop();
        return server_ ? server_->stats() : net::ServerStats{};
    }

    bool io_ok() const {
        for (bool ok : io_ok_) {
            if (!ok) return false;
        }
        return true;
    }

    /** The full slices of the last window, connections merged. */
    std::vector<Slice> slices() const {
        std::vector<Slice> out;
        std::vector<uint64_t> merged(kLatencyBuckets);
        for (size_t k = 0; k < slice_cpu_s.size(); ++k) {
            std::fill(merged.begin(), merged.end(), 0);
            std::vector<uint32_t> long_us;
            uint64_t n = 0;
            for (const WindowLog& log : logs) {
                const uint32_t* b = log.buckets.get() + k * kLatencyBuckets;
                for (size_t us = 0; us < kLatencyBuckets; ++us) {
                    merged[us] += b[us];
                }
                long_us.insert(long_us.end(), log.long_us[k].begin(),
                               log.long_us[k].end());
                n += log.answered[k];
            }
            std::sort(long_us.begin(), long_us.end());
            // Nearest rank, read at the middle of its 1-us bucket.
            auto pct = [&](double q) {
                uint64_t rank = std::clamp<uint64_t>(
                    static_cast<uint64_t>(std::ceil(q * n)), 1, n);
                uint64_t below = 0;
                for (size_t us = 0; us < kLatencyBuckets; ++us) {
                    below += merged[us];
                    if (below >= rank) return us + 0.5;
                }
                return static_cast<double>(long_us[rank - below - 1]);
            };
            if (n == 0) continue;
            out.push_back({static_cast<double>(n), kSliceSeconds,
                           slice_cpu_s[k], pct(0.50), pct(0.99), n});
        }
        return out;
    }

    /** Frames answered within the last window's full slices. */
    uint64_t answered() const {
        uint64_t n = 0;
        for (const WindowLog& log : logs) {
            for (uint64_t a : log.answered) n += a;
        }
        return n;
    }

    std::vector<std::unique_ptr<Client>> clients;
    std::vector<WindowLog> logs;
    std::vector<double> slice_cpu_s;

  private:
    enum class Command { kWindow, kQuit };

    static void sleep_until(uint64_t deadline_ns) {
        uint64_t now = now_ns();
        if (deadline_ns > now) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(deadline_ns - now));
        }
    }

    void command(Command cmd) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ready_ = 0;
            command_ = cmd;
            ++generation_;
        }
        cv_.notify_all();
    }

    void wait_ready() {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return ready_ == kConns; });
    }

    void client_main(size_t c, uint16_t port) {
        Client& client = *clients[c];
        client.tid = current_tid();
        bool ok = client.connect(port) &&
                  client.loop(kWarmupAnswers, nullptr, nullptr);
        uint64_t seen = 0;
        while (true) {
            Command cmd;
            {
                std::unique_lock<std::mutex> lock(mu_);
                io_ok_[c] = ok;
                ++ready_;
                cv_.notify_all();
                cv_.wait(lock, [&] { return generation_ != seen; });
                seen = generation_;
                cmd = command_;
            }
            if (cmd == Command::kQuit) break;
            if (ok) ok = client.loop(0, &stop_, &logs[c]);
        }
        client.close();
    }

    std::unique_ptr<net::NetServer> server_;
    std::vector<std::thread> threads_;
    std::atomic<bool> stop_{false};
    std::mutex mu_;
    std::condition_variable cv_;
    Command command_ = Command::kWindow;       // guarded by mu_
    uint64_t generation_ = 0;                  // guarded by mu_
    size_t ready_ = 0;                         // guarded by mu_
    std::array<bool, kConns> io_ok_{};         // guarded by mu_
};

/** Checks the ledger of a finished session. */
void
check_ledger(const net::ServerStats& stats, const Session& session,
             RunResult& out)
{
    uint64_t sent = 0;
    for (const auto& c : session.clients) sent += c->sent_total;
    if (!stats.conserved()) out.problem("serve-min: ledger not conserved");
    if (stats.generated != sent) {
        out.problem("serve-min: server generated != frames sent");
    }
    if (stats.protocol_errors != 0 || stats.edge_rejects != 0 ||
        stats.teardowns_sick != 0) {
        out.problem("serve-min: server reported failures");
    }
}

/** Encodes and decodes the workload's frames; ns per frame each. */
void
wire_probe(uint64_t seed, RunResult& out)
{
    constexpr size_t kFrames = size_t{1} << 16;
    constexpr size_t kFrameBytes = net::encoded_frame_size(kWire);
    Rng rng(client_seed(seed, 0));
    std::vector<std::array<uint8_t, kWire>> packets(kFrames);
    for (auto& p : packets) interop::generate_packet(rng, p);
    std::vector<uint8_t> stream(kFrames * kFrameBytes);

    uint64_t t0 = now_ns();
    for (size_t i = 0; i < kFrames; ++i) {
        net::encode_frame_into(
            net::FrameType::kData, static_cast<uint32_t>(i + 1), 0,
            packets[i],
            std::span<uint8_t>(stream.data() + i * kFrameBytes,
                               kFrameBytes));
    }
    uint64_t t1 = now_ns();
    // Decode as the server does: read into the decoder's tail in
    // socket-sized chunks, then pull every complete frame.
    net::FrameDecoder decoder;
    size_t decoded = 0;
    bool intact = true;
    constexpr size_t kChunk = 4096;
    for (size_t off = 0; off < stream.size(); off += kChunk) {
        size_t n = std::min(kChunk, stream.size() - off);
        auto tail = decoder.tail(n);
        if (!tail.is_ok()) {
            intact = false;
            break;
        }
        std::memcpy(tail.value().data(), stream.data() + off, n);
        decoder.commit(n);
        while (true) {
            auto view = decoder.next_view();
            if (!view.is_ok()) {
                intact = false;
                break;
            }
            if (!view.value().has_value()) break;
            const net::FrameView& f = *view.value();
            intact = intact && f.flow == decoded + 1 &&
                     std::memcmp(f.payload.data(),
                                 packets[decoded].data(), kWire) == 0;
            ++decoded;
        }
        if (!intact) break;
    }
    uint64_t t2 = now_ns();
    if (!intact || decoded != kFrames) {
        out.problem("serve-min: wire round trip changed a frame");
    }
    out.add_layer("net.wire_encode_ns",
                  static_cast<double>(t1 - t0) / kFrames, "ns");
    out.add_layer("net.wire_decode_ns",
                  static_cast<double>(t2 - t1) / kFrames, "ns");
}

}  // namespace

RunResult
run_serve_min(const Options& opts)
{
    RunResult out;
    Names names{spans::name_id("bench.client"),
                spans::name_id("interop.generate_packet"),
                spans::name_id("net.send_data"),
                spans::name_id("net.recv_frame_view"),
                spans::name_id("interop.legacy_reference"),
                spans::name_id("e2e.frame")};
    std::printf("workload serve-min: closed loop, %zu connections x %zu "
                "in flight, NetServer on 127.0.0.1 (loopback, epoll), "
                "default engine (legacy stages, 1 worker/stage, "
                "lookup 0, payload 0), %zu-byte data frames, seed %llu\n",
                kConns, kInflight, kWire,
                static_cast<unsigned long long>(opts.seed));

    // kSetups sessions, each set up (server start, connects, warm-up)
    // and then timed for an equal share of the window, so the run's
    // figures are medians over every session's slices, not one's.
    double share = std::max(opts.seconds / kSetups, kSliceSeconds);
    std::vector<Slice> slices;
    for (int s = 0; s < kSetups; ++s) {
        Stopwatch setup;
        Session session(opts.seed, names);
        std::string error;
        if (!session.start(error)) {
            out.problem("serve-min: set-up failed: " + error);
            return out;
        }
        out.add_setup(setup);
        session.clients[0]->corrupt_next = opts.corrupt && s == 0;
        session.window(share);
        std::vector<Slice> got = session.slices();
        slices.insert(slices.end(), got.begin(), got.end());
        for (const WindowLog& log : session.logs) {
            out.attempted += log.sent;
            out.failed += log.failed;
        }
        if (!session.io_ok()) out.problem("serve-min: client IO failed");
        check_ledger(session.finish(), session, out);
        for (const auto& c : session.clients) {
            if (c->failed_total != 0) {
                out.problem("serve-min: wrong or missing answers");
                break;
            }
        }
    }
    out.untraced = summarize(slices);
    out.untraced_rss_mib = status_mib("VmHWM");
    if (!opts.trace) return out;

    // Traced window: a fresh session with spans, the metrics registry
    // and the trace ring on from before its threads start.
    bitc::metrics::reset();
    bitc::metrics::enable();
    bitc::trace::start();
    spans::enable(true);
    Session traced(opts.seed, names);
    std::string error;
    if (!traced.start(error)) {
        out.problem("serve-min: traced set-up failed: " + error);
        return out;
    }
    spans::reset();  // drop the warm-up's spans; the clients are idle
    std::vector<int> client_tids;
    for (const auto& c : traced.clients) client_tids.push_back(c->tid);
    int main_tid = current_tid();

    auto snap0 = bitc::metrics::snapshot();
    auto pool0 = pool::frame_pool().stats();
    auto cpu0 = thread_cpu_ns();
    count_allocations(true);
    uint64_t allocs0 = allocations();
    Stopwatch traced_window;
    traced.window(opts.seconds);
    double window_ns = traced_window.wall_s() * 1e9;
    uint64_t allocs = allocations() - allocs0;
    count_allocations(false);
    auto cpu1 = thread_cpu_ns();
    auto pool1 = pool::frame_pool().stats();
    auto snap1 = bitc::metrics::snapshot();
    spans::enable(false);
    auto totals = spans::totals();
    double frames = static_cast<double>(traced.answered());
    out.traced = summarize(traced.slices());
    const Headline& th = out.traced;
    if (!traced.io_ok()) out.problem("serve-min: traced client IO failed");
    net::ServerStats stats = traced.finish();
    check_ledger(stats, traced, out);
    bitc::trace::stop();
    bitc::metrics::disable();


    auto delta = [&](bitc::metrics::Histogram h) {
        return histogram_delta(snap0, snap1, h);
    };
    uint64_t server_cpu = 0, busiest = 0;
    for (const auto& [tid, ns] : cpu1) {
        bool is_client = tid == main_tid;
        for (int c : client_tids) is_client = is_client || c == tid;
        if (is_client || cpu0.count(tid) == 0) continue;
        uint64_t used = ns - cpu0[tid];
        server_cpu += used;
        busiest = std::max(busiest, used);
    }
    using bitc::metrics::Histogram;
    auto batch = delta(Histogram::kPipeBatchNs);
    out.add_layer("net.client_send_ns", mean_span_ns(totals, "net.send_data"),
                  "ns");
    out.add_layer("net.client_wait_us",
                  mean_span_ns(totals, "net.recv_frame_view") / 1e3, "us");
    out.add_layer("net.server_residence_us",
                  histogram_p50(delta(Histogram::kNetFrameLatencyNs)) /
                      1e3,
                  "us");
    wire_probe(opts.seed, out);
    out.add_layer("net.frames_per_writev",
                  histogram_mean(delta(Histogram::kNetWritevFramesPerCall)),
                  "count");
    out.add_layer("net.allocs_per_frame",
                  ratio(static_cast<double>(allocs), frames), "count");
    out.add_layer("net.server_cpu_us_per_frame",
                  ratio(static_cast<double>(server_cpu) / 1e3, frames),
                  "us");
    out.add_layer("net.busiest_thread_busy",
                  ratio(static_cast<double>(busiest), window_ns),
                  "ratio");
    out.add_layer("net.edge_rejects",
                  static_cast<double>(stats.edge_rejects), "count");
    out.add_layer("net.teardowns_sick",
                  static_cast<double>(stats.teardowns_sick), "count");
    out.add_layer("net.protocol_errors",
                  static_cast<double>(stats.protocol_errors), "count");
    out.add_layer("support.pool_hits",
                  static_cast<double>(pool1.hits - pool0.hits), "count");
    out.add_layer("support.pool_misses",
                  static_cast<double>(pool1.misses - pool0.misses),
                  "count");
    // Every frame crosses the four stages; each stage consumes batches.
    out.add_layer("concurrency.pkts_per_batch",
                  ratio(4 * frames, static_cast<double>(batch.count)),
                  "count");
    out.add_layer("concurrency.batch_us", histogram_mean(batch) / 1e3,
                  "us");
    out.add_layer("concurrency.chan_blocked_us",
                  histogram_mean(delta(Histogram::kChanBlockedNs)) /
                      1e3,
                  "us");
    conc::PipelineConfig engine =
        conc::config_from_spec(options::PipelineSpec{});
    engine.seed = opts.seed;
    out.add_layer("concurrency.hop_ns_per_pkt",
                  legacy_hop_ns_per_pkt(engine, out), "ns");
    out.add_layer("interop.legacy_pkt_ns",
                  legacy_stages_ns_per_pkt(opts.seed), "ns");

    std::string path = std::string(kSpanDir) + "/spans-serve-min.tsv";
    size_t kept = spans::write(path);
    std::printf("spans: %zu of %llu written to %s\n", kept,
                static_cast<unsigned long long>([&] {
                    uint64_t n = 0;
                    for (const auto& [name, t] : totals) n += t.count;
                    return n;
                }()),
                path.c_str());

    std::printf("per-layer (serve-min), as shares of the traced frame "
                "latency p50 (%.1f us):\n",
                th.p50_us);
    print_shares(out.layer, th.p50_us * 1e3,
                 [](const Metric&) { return 1.0; });
    double client_ns = 0;
    if (auto it = totals.find("bench.client"); it != totals.end()) {
        client_ns = static_cast<double>(it->second.wall_ns);
    }
    print_layer_table(totals, client_ns, "client-thread time");
    return out;
}

}  // namespace perfbench
