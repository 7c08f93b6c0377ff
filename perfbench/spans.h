/**
 * @file
 * The benchmark's own span recorder. Spans are opened and closed by the
 * single client thread around its calls into each layer (service,
 * compiler, verify, hw, kernels, fv); nothing inside the library is
 * instrumented. Every span holds a name, a start and end on the host
 * steady clock, its parent and the request it belongs to. Spans stay in
 * memory until the run ends, then are written out as Chrome trace JSON
 * and reduced to per-layer self time.
 *
 * Span names are "<layer>.<what>"; the layer is the part before the
 * first dot. A disabled log records nothing and every call is a branch.
 */

#ifndef HEAT_PERFBENCH_SPANS_H
#define HEAT_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Index of a recorded span; kNoSpan when the log is disabled. */
using SpanId = int64_t;
constexpr SpanId kNoSpan = -1;

struct Span
{
    std::string name;
    uint64_t request = 0;
    SpanId parent = kNoSpan;
    double start_us = 0.0;
    double end_us = -1.0;
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Open a span now; returns kNoSpan when disabled. */
    SpanId open(const char *name, uint64_t request, SpanId parent = kNoSpan);

    /** Close @p id now (no-op for kNoSpan). */
    void close(SpanId id);

    /** Duration (us) of the closed span @p id. */
    double durationUs(SpanId id) const;

    /** Durations (us) of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Self time (us) per layer: each span's duration minus the time
     *  its children cover, summed over the layer's spans. */
    std::map<std::string, double> layerSelfUs() const;

    /** Write every closed span as Chrome trace_event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    /** A deque, so opening a span never moves the recorded ones (a
     *  vector's regrowth would land inside the span being opened). */
    std::deque<Span> spans_;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint64_t request = 0,
               SpanId parent = kNoSpan)
        : log_(log), id_(log.open(name, request, parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanId id() const { return id_; }

  private:
    SpanLog &log_;
    SpanId id_;
};

} // namespace perfbench

#endif // HEAT_PERFBENCH_SPANS_H
