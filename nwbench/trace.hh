/**
 * @file
 * In-memory span recorder for nwbench's traced run.
 *
 * The harness opens a span around every call it makes into a simulator
 * layer. A span records its name ("layer.step"), its start and end on
 * the steady clock, the span it was opened inside, and the id of the
 * job it belongs to. Spans stay in memory until the run ends; the
 * per-layer numbers come from selfTimes(): a span's duration minus the
 * part of it that its child spans cover.
 */

#ifndef NWBENCH_TRACE_HH
#define NWBENCH_TRACE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nwbench
{

/** Nanoseconds on the steady clock. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    /** "layer.step": the simulator module, then the call made. */
    std::string name;
    /** Job the span belongs to (every span of one job shares it). */
    uint32_t job = 0;
    /** Index of the enclosing span, or -1 for a root. */
    int32_t parent = -1;
    int64_t start = 0;
    int64_t end = 0;
};

/**
 * Self time of every span, in nanoseconds: its duration minus the
 * union of its children's intervals, clipped to the span itself, so
 * overlapping or overhanging children are never counted twice.
 */
inline std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[s.parent].push_back({s.start, s.end});
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, reach = p.start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, p.end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

/** Records spans; nesting follows the open/close call order. */
class Tracer
{
  public:
    /** Start a new job: later root spans carry its id. */
    void beginJob() { ++jobId; }

    /** RAII span around one layer call. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : tracer(t)
        {
            index = static_cast<int32_t>(t.spans.size());
            const int32_t parent = t.open.empty() ? -1 : t.open.back();
            t.spans.push_back({name, t.jobId, parent, nowNs(), 0});
            t.open.push_back(index);
        }
        ~Scope()
        {
            tracer.spans[index].end = nowNs();
            tracer.open.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int32_t index;
    };

    const std::vector<Span> &all() const { return spans; }

  private:
    std::vector<Span> spans;
    std::vector<int32_t> open;
    uint32_t jobId = 0;
};

} // namespace nwbench

#endif // NWBENCH_TRACE_HH
