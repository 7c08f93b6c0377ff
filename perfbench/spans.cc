#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

SpanId
SpanLog::open(const char *name, uint64_t request, SpanId parent)
{
    if (!enabled_)
        return kNoSpan;
    spans_.push_back(Span{name, request, parent, nowUs(), -1.0});
    return static_cast<SpanId>(spans_.size() - 1);
}

void
SpanLog::close(SpanId id)
{
    if (id == kNoSpan)
        return;
    spans_[static_cast<size_t>(id)].end_us = nowUs();
}

double
SpanLog::durationUs(SpanId id) const
{
    const Span &s = spans_[static_cast<size_t>(id)];
    return s.end_us - s.start_us;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.end_us >= 0.0 && s.name == name)
            out.push_back(s.end_us - s.start_us);
    }
    return out;
}

std::map<std::string, double>
SpanLog::layerSelfUs() const
{
    // Children of one parent run on the one client thread, so they
    // never overlap each other: the covered time is their summed
    // duration, clipped to the parent's interval.
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent == kNoSpan || s.end_us < 0.0)
            continue;
        const Span &p = spans_[static_cast<size_t>(s.parent)];
        const double lo = std::max(s.start_us, p.start_us);
        const double hi = std::min(s.end_us, p.end_us);
        if (hi > lo)
            child_us[static_cast<size_t>(s.parent)] += hi - lo;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end_us < 0.0)
            continue;
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += std::max(0.0, s.end_us - s.start_us - child_us[i]);
    }
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end_us < 0.0)
            continue;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%zu,\"parent\":%lld,\"request\":%llu}}",
                     first ? "" : ",\n", s.name.c_str(), s.start_us,
                     s.end_us - s.start_us, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
