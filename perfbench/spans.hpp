/**
 * @file
 * In-memory spans for the traced run.  The benchmark opens a Scope
 * around each call it makes into a layer's public function; a span
 * records its name ("<layer>.<call>"), start, end, parent span and an
 * operation id (conn+flow, packet index, or program+entry).  Each
 * thread keeps its own buffer, so recording takes no lock.  Totals per
 * name (count, wall time, self time = wall minus child spans) are kept
 * for every span; raw records are kept up to a fixed cap and written
 * out when the run ends.
 *
 * While recording is off a Scope costs one relaxed load.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::spans {

void enable(bool on);
bool enabled();

/** Interns a span name; call before the threads that use it start. */
uint16_t name_id(const char* name);

class Scope {
  public:
    Scope(uint16_t name, uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    bool on_;
};

/** Records a span the caller timed itself: one that is not nested,
 *  such as a frame from send to answer ("e2e.frame"). */
void record(uint16_t name, uint64_t op, uint64_t start_ns,
            uint64_t end_ns);

struct Totals {
    uint64_t count = 0;
    uint64_t wall_ns = 0;
    uint64_t self_ns = 0;
};

/** Totals per span name, merged over threads.  Call while no thread
 *  is recording. */
std::map<std::string, Totals> totals();

/** Drops every total and kept record. */
void reset();

/** Writes the kept records as tab-separated lines; returns how many. */
size_t write(const std::string& path);

}  // namespace perfbench::spans

#endif  // PERFBENCH_SPANS_HPP
