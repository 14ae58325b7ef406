/**
 * @file
 * toolchain: source to checked result for a fixed corpus already in
 * the repository — the kernels of bench/kernels.hpp, the four
 * programs of tests/integration/test_programs.hpp, examples/bitc and
 * interop::migrated_stage_source().  One job builds one program
 * through parse_program -> resolve_program -> check_program ->
 * verify_program_with_options -> compile_program (the `bitcc run`
 * defaults), then runs each of its entries in a fresh VM twice: the
 * `bitcc run` default (unboxed, region heap) and `--mode boxed`
 * (boxed, generational heap).  A pass runs every job once, in corpus
 * order: the order decides which allocations overlap, so a seeded
 * order would move peak_rss_mib from seed to seed.
 */
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/kernels.hpp"
#include "interop/marshal.hpp"
#include "interop/packet_stages.hpp"
#include "lang/parser.hpp"
#include "lang/resolver.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "tests/integration/test_programs.hpp"
#include "vm/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bitc;

std::unique_ptr<vm::BuiltProgram>
build_phased(const std::string& source, uint64_t op, BuildStats& stats,
             std::string& error)
{
    static const uint16_t kParse = spans::name_id("lang.parse_program");
    static const uint16_t kResolve =
        spans::name_id("lang.resolve_program");
    static const uint16_t kCheck = spans::name_id("types.check_program");
    static const uint16_t kVerify = spans::name_id("verify.verify_program");
    static const uint16_t kCompile = spans::name_id("vm.compile_program");

    DiagnosticEngine diags;
    auto parsed = [&] {
        spans::Scope s(kParse, op);
        return lang::parse_program(source, diags);
    }();
    if (!parsed.is_ok()) {
        error = diags.to_string();
        return nullptr;
    }
    Status resolved = [&] {
        spans::Scope s(kResolve, op);
        return lang::resolve_program(parsed.value(), diags);
    }();
    if (!resolved.is_ok()) {
        error = diags.to_string();
        return nullptr;
    }
    auto typed = [&] {
        spans::Scope s(kCheck, op);
        return types::check_program(std::move(parsed).take(), diags);
    }();
    if (!typed.is_ok()) {
        error = diags.to_string();
        return nullptr;
    }
    auto built = std::make_unique<vm::BuiltProgram>();
    built->typed = std::move(typed).take();
    {
        spans::Scope s(kVerify, op);
        built->verification = verify::verify_program_with_options(
            built->typed, verify::VerifyOptions{});
    }
    vm::CompilerOptions copts;  // bitcc run: fold, verify, elide proved
    copts.constant_fold = true;
    copts.elide_proved_checks = true;
    copts.proofs = &built->verification;
    auto code = [&] {
        spans::Scope s(kCompile, op);
        return vm::compile_program(built->typed, copts);
    }();
    if (!code.is_ok()) {
        error = code.status().to_string();
        return nullptr;
    }
    built->code = std::move(code).take();

    const verify::VerifyReport& v = built->verification;
    stats.obligations += v.total();
    stats.proved += v.proved();
    stats.solver_queries += v.solver_stats.queries;
    stats.fm_eliminations += v.solver_stats.fm_eliminations;
    for (const vm::CompiledFunction& f : built->code.functions) {
        stats.code_instrs += f.code.size();
    }
    return built;
}

namespace {

/** One entry call and the answer it must give. */
struct Entry {
    std::string function;
    std::vector<int64_t> args;
    int64_t expected = 0;
    /** Migrated stages take the unmarshalled header as an array and
     *  must leave it equal to what the legacy stage does to the wire. */
    bool buffer = false;
    std::array<uint8_t, conc::kPipeWireBytes> wire_in{};
    std::array<uint8_t, conc::kPipeWireBytes> wire_expected{};
};

struct Program {
    std::string name;
    std::string source;
    std::vector<Entry> entries;
};

Entry
entry(const char* function, std::vector<int64_t> args, int64_t expected)
{
    Entry e;
    e.function = function;
    e.args = std::move(args);
    e.expected = expected;
    return e;
}

/** The corpus with its seeded inputs and oracle answers; work per
 *  pass does not depend on the seed. */
bool
make_corpus(uint64_t seed, std::vector<Program>& corpus,
            std::string& error)
{
    namespace tp = vm::testprog;
    Rng rng(seed);
    corpus.clear();
    corpus.push_back({"kernels",
                      bench::kernel_source(),
                      {entry("checksum", {4}, bench::native_checksum(4)),
                       entry("sieve", {4096}, bench::native_sieve(4096)),
                       entry("hash-churn", {512},
                            bench::native_hash_churn(512))}});
    int64_t sort_seed = static_cast<int64_t>(rng.next() & 0xffffffffu);
    corpus.push_back({"quicksort", tp::kQuicksort,
                      {entry("sort-main", {sort_seed},
                            tp::native_sort_checksum(sort_seed))}});
    corpus.push_back({"matmul", tp::kMatMul,
                      {entry("matmul-main", {12},
                            tp::native_matmul_checksum(12))}});
    int64_t burst = rng.next_in(0, 16);
    corpus.push_back({"queuesim", tp::kQueueSim,
                      {entry("sim", {1000, burst},
                            tp::native_sim(1000, burst))}});
    int64_t q = rng.next_in(0, 399);
    corpus.push_back({"bsearch", tp::kBinarySearch,
                      {entry("bsearch-main", {q}, tp::native_bsearch(q))}});

    const std::pair<const char*, int64_t> examples[] = {
        {"examples/bitc/fib.bitc", 6765},
        {"examples/bitc/bounded_buffer.bitc", 100},
        {"examples/bitc/saturating_add.bitc", 127},
    };
    for (const auto& [path, answer] : examples) {
        std::string source;
        if (!read_file(path, source)) {
            error = std::string("cannot read ") + path;
            return false;
        }
        corpus.push_back({path, source, {entry("main", {}, answer)}});
    }

    // One packet the validate stage keeps, so every stage has work.
    std::array<uint8_t, conc::kPipeWireBytes> wire{};
    do {
        interop::generate_packet(rng, wire);
    } while (interop::legacy_validate(wire) == 0);
    Program stages{"migrated_stage_source",
                   interop::migrated_stage_source(),
                   {}};
    for (size_t s = 0; s < interop::kStageCount; ++s) {
        Entry e;
        e.function = interop::migrated_stage_function(s);
        e.buffer = true;
        e.wire_in = wire;
        e.wire_expected = wire;
        switch (s) {
          case interop::kValidate:
            e.expected = interop::legacy_validate(wire);
            break;
          case interop::kDecrementTtl:
            interop::legacy_decrement_ttl(e.wire_expected);
            break;
          case interop::kChecksum:
            interop::legacy_checksum(e.wire_expected);
            break;
          case interop::kClassify:
            e.expected = interop::legacy_classify(wire);
            break;
        }
        stages.entries.push_back(e);
    }
    corpus.push_back(std::move(stages));
    return true;
}

/** What one pass over the corpus did. */
struct Pass {
    double build_ns = 0;
    double exec_ns = 0;
    double wall_ns = 0;
    double cpu_ns = 0;
    SampleStats job_us;
    uint64_t jobs_failed = 0;
    BuildStats build;
    uint64_t instructions = 0;
    uint64_t allocations = 0;
    uint64_t collections = 0;
    double gc_pause_ns = 0;

    /** The counts that must repeat exactly between passes and runs. */
    std::vector<uint64_t> counts() const {
        return {instructions,        allocations,
                collections,         build.obligations,
                build.proved,        build.solver_queries,
                build.fm_eliminations, build.code_instrs};
    }
};

class Toolchain {
  public:
    explicit Toolchain(bool count_ops) {
        unboxed_.count_ops = count_ops;  // bitcc run default otherwise
        boxed_.mode = vm::ValueMode::kBoxed;
        boxed_.heap = vm::HeapPolicy::kGenerational;
        boxed_.count_ops = count_ops;
        job_ = spans::name_id("bench.job");
        instantiate_ = spans::name_id("vm.instantiate");
        call_ = spans::name_id("vm.call");
    }

    /** Builds and runs one program; false when any answer is wrong. */
    bool job(const Program& p, uint64_t index, Pass& pass) {
        spans::Scope whole(job_, index << 16);
        uint64_t t0 = now_ns();
        std::string error;
        auto built = build_phased(p.source, index << 16, pass.build, error);
        uint64_t t1 = now_ns();
        pass.build_ns += static_cast<double>(t1 - t0);
        bool ok = built != nullptr;
        if (!ok) {
            std::fprintf(stderr, "toolchain: %s: %s\n", p.name.c_str(),
                         error.c_str());
        }
        for (size_t e = 0; ok && e < p.entries.size(); ++e) {
            for (const vm::VmConfig* config : {&unboxed_, &boxed_}) {
                uint64_t op = (index << 16) | (e << 1) |
                              (config == &boxed_ ? 1 : 0);
                ok = run_entry(*built, p.entries[e], *config, op, pass) &&
                     ok;
            }
        }
        uint64_t t2 = now_ns();
        pass.exec_ns += static_cast<double>(t2 - t1);
        pass.job_us.record(static_cast<double>(t2 - t0) / 1e3);
        if (!ok) ++pass.jobs_failed;
        return ok;
    }

    Pass pass(const std::vector<Program>& corpus) {
        Pass pass;
        Stopwatch watch;
        for (size_t i = 0; i < corpus.size(); ++i) job(corpus[i], i, pass);
        pass.wall_ns = watch.wall_s() * 1e9;
        pass.cpu_ns = watch.cpu_s() * 1e9;
        return pass;
    }

  private:
    bool run_entry(const vm::BuiltProgram& built, const Entry& e,
                   const vm::VmConfig& config, uint64_t op, Pass& pass) {
        std::unique_ptr<vm::Vm> machine = [&] {
            spans::Scope s(instantiate_, op);
            return built.instantiate(config);
        }();
        std::array<int64_t, interop::kFieldCount> fields{};
        std::array<uint8_t, conc::kPipeWireBytes> wire_out = e.wire_in;
        auto result = [&] {
            spans::Scope s(call_, op);
            if (!e.buffer) return machine->call(e.function, e.args);
            Status in = interop::unmarshal_record(interop::packet_codec(),
                                                  e.wire_in, fields);
            if (!in.is_ok()) return Result<int64_t>(in);
            return machine->call_with_buffer(e.function, fields);
        }();
        pass.instructions += machine->instructions_executed();
        const mem::HeapStats& heap = machine->heap().stats();
        pass.allocations += heap.allocations;
        pass.collections += heap.collections + heap.minor_collections;
        pass.gc_pause_ns += machine->heap().pause_stats().sum();
        machine.reset();
        if (!result.is_ok()) return false;
        bool ok = result.value() == e.expected;
        if (e.buffer) {
            ok = ok && interop::marshal_record(interop::packet_codec(),
                                               fields, wire_out)
                           .is_ok() &&
                 wire_out == e.wire_expected;
        }
        return ok;
    }

    vm::VmConfig unboxed_;
    vm::VmConfig boxed_;
    uint16_t job_, instantiate_, call_;
};

/** Runs passes until @p seconds have gone by (at least one). */
std::vector<Pass>
window(Toolchain& tc, const std::vector<Program>& corpus, double seconds)
{
    std::vector<Pass> passes;
    uint64_t t0 = now_ns();
    do {
        passes.push_back(tc.pass(corpus));
    } while (static_cast<double>(now_ns() - t0) < seconds * 1e9);
    return passes;
}

/** Headline figures; one slice per pass. */
Headline
headline(const std::vector<Pass>& passes)
{
    std::vector<Slice> slices;
    for (const Pass& p : passes) {
        slices.push_back(make_slice(static_cast<double>(p.job_us.count()),
                                    p.wall_ns / 1e9, p.cpu_ns / 1e9,
                                    p.job_us));
    }
    return summarize(slices);
}

void
check_counts(const std::vector<Pass>& passes, RunResult& out)
{
    for (const Pass& p : passes) {
        if (p.counts() != passes.front().counts()) {
            out.problem("toolchain: counts differ between passes");
            return;
        }
    }
}

}  // namespace

RunResult
run_toolchain(const Options& opts)
{
    RunResult out;
    std::printf("workload toolchain: closed loop, one job at a time; "
                "corpus bench/kernels.hpp, tests/integration/"
                "test_programs.hpp, examples/bitc/{fib,bounded_buffer,"
                "saturating_add}.bitc, migrated_stage_source(); VMs "
                "unboxed/region and boxed/generational; seed %llu\n",
                static_cast<unsigned long long>(opts.seed));

    // Set-up, kSetups times: corpus inputs and oracle answers, then one
    // warm-up pass, so every program has been built and run once before
    // timing.
    std::vector<Program> corpus;
    Toolchain tc(/*count_ops=*/false);
    for (int s = 0; s < kSetups; ++s) {
        Stopwatch setup;
        std::string error;
        if (!make_corpus(opts.seed, corpus, error)) {
            out.problem("toolchain: " + error);
            return out;
        }
        if (tc.pass(corpus).jobs_failed != 0) {
            out.problem("toolchain: warm-up pass failed");
        }
        out.add_setup(setup);
    }
    if (opts.corrupt) {
        for (Program& p : corpus) {
            if (p.name == "examples/bitc/fib.bitc") p.entries[0].expected++;
        }
    }

    std::vector<Pass> passes = window(tc, corpus, opts.seconds);
    for (const Pass& p : passes) {
        out.attempted += p.job_us.count();
        out.failed += p.jobs_failed;
    }
    out.untraced = headline(passes);
    check_counts(passes, out);

    SampleStats build_ms, exec_ms;
    for (const Pass& p : passes) {
        build_ms.record(p.build_ns / 1e6);
        exec_ms.record(p.exec_ns / 1e6);
    }
    const Pass& first = passes.front();
    double proved_frac =
        ratio(static_cast<double>(first.build.proved),
              static_cast<double>(first.build.obligations));
    std::printf("toolchain window: %zu passes of %zu jobs; build_ms "
                "%.3f exec_ms %.3f per pass (medians); proved %llu/%llu\n",
                passes.size(), corpus.size(), median(build_ms),
                median(exec_ms),
                static_cast<unsigned long long>(first.build.proved),
                static_cast<unsigned long long>(first.build.obligations));
    out.counts = {
        {"vm.instructions", static_cast<double>(first.instructions),
         "count"},
        {"verify.solver_queries",
         static_cast<double>(first.build.solver_queries), "count"},
        {"memory.allocations", static_cast<double>(first.allocations),
         "count"},
        {"proved_frac", proved_frac, "ratio"},
    };
    out.untraced_rss_mib = status_mib("VmHWM");
    if (!opts.trace) return out;

    // Instrumented window: spans, the metrics registry, count_ops and
    // the trace ring on.  It gives the traced end-to-end figures and
    // proves the counts unchanged by instrumentation.
    bitc::metrics::reset();
    bitc::metrics::enable();
    bitc::trace::start();
    spans::enable(true);
    Toolchain traced_tc(/*count_ops=*/true);
    std::vector<Pass> traced = window(traced_tc, corpus, opts.seconds);
    spans::enable(false);
    bitc::trace::stop();
    bitc::metrics::disable();
    out.traced = headline(traced);

    // Timing window: spans only, so the layer times below are the
    // layers' own cost, not the registry's or count_ops' (the basis
    // pipeline-bitc's probes use too).
    spans::reset();
    spans::enable(true);
    std::vector<Pass> timed = window(tc, corpus, opts.seconds);
    spans::enable(false);
    auto totals = spans::totals();
    for (const std::vector<Pass>* w : {&traced, &timed}) {
        for (const Pass& p : *w) {
            if (p.jobs_failed != 0) {
                out.problem("toolchain: traced job failed");
            }
        }
        check_counts(*w, out);
        if (w->front().counts() != first.counts()) {
            out.problem("toolchain: traced counts differ from untraced");
        }
    }

    double n = static_cast<double>(timed.size());
    auto per_pass_us = [&](const char* name) {
        auto it = totals.find(name);
        return it == totals.end()
                   ? 0.0
                   : static_cast<double>(it->second.wall_ns) / 1e3 / n;
    };
    double call_us = per_pass_us("vm.call");
    double gc_pause_ns = 0;
    for (const Pass& p : timed) gc_pause_ns += p.gc_pause_ns;
    out.add_layer("build_ms", median(build_ms), "ms");
    out.add_layer("exec_ms", median(exec_ms), "ms");
    out.add_layer("proved_frac", proved_frac, "ratio");
    out.add_layer("lang.parse_us", per_pass_us("lang.parse_program"), "us");
    out.add_layer("lang.resolve_us", per_pass_us("lang.resolve_program"),
                  "us");
    out.add_layer("types.check_us", per_pass_us("types.check_program"),
                  "us");
    out.add_layer("verify.verify_us", per_pass_us("verify.verify_program"),
                  "us");
    out.add_layer("verify.obligations",
                  static_cast<double>(first.build.obligations), "count");
    out.add_layer("verify.proved", static_cast<double>(first.build.proved),
                  "count");
    out.add_layer("verify.solver_queries",
                  static_cast<double>(first.build.solver_queries), "count");
    out.add_layer("verify.fm_eliminations",
                  static_cast<double>(first.build.fm_eliminations),
                  "count");
    out.add_layer("vm.compile_us", per_pass_us("vm.compile_program"), "us");
    out.add_layer("vm.code_instrs",
                  static_cast<double>(first.build.code_instrs), "count");
    out.add_layer("vm.instantiate_us", per_pass_us("vm.instantiate"), "us");
    out.add_layer("vm.call_us", call_us, "us");
    out.add_layer("vm.instructions", static_cast<double>(first.instructions),
                  "count");
    out.add_layer("vm.ns_per_instr",
                  ratio(call_us * 1e3,
                        static_cast<double>(first.instructions)),
                  "ns");
    out.add_layer("memory.allocations",
                  static_cast<double>(first.allocations), "count");
    out.add_layer("memory.collections",
                  static_cast<double>(first.collections), "count");
    out.add_layer("memory.gc_pause_us", gc_pause_ns / 1e3 / n, "us");

    std::string path = std::string(kSpanDir) + "/spans-toolchain.tsv";
    size_t kept = spans::write(path);
    std::printf("spans: %zu written to %s\n", kept, path.c_str());
    double pass_us = 0;
    for (const Pass& p : timed) pass_us += p.wall_ns / 1e3;
    pass_us /= n;
    std::printf("per-layer (toolchain), as shares of the timing window's "
                "pass (%.1f ms):\n",
                pass_us / 1e3);
    print_shares(out.layer, pass_us * 1e3, [](const Metric& m) {
        return m.name == "vm.ns_per_instr" ? 0.0 : 1.0;
    });
    print_layer_table(totals, pass_us * 1e3 * n, "timing window time");
    return out;
}

}  // namespace perfbench
