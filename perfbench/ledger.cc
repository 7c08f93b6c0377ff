/**
 * @file
 * heat_ledger: the HEAT ledger benchmark driver (see README.md).
 *
 *   heat_ledger --workload <mult-paper|pir-paper|serving-mixed>
 *               --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
 *
 * --trace 0 sets up the workload several times (setup_s is the median),
 * then runs one untraced timed window and reports the end-to-end
 * metrics. --trace 1 splits the window into an untraced and a traced
 * half (their throughput difference is obs.trace_overhead_pct), then
 * probes each layer from outside and reports the per-layer metrics,
 * including per-layer self time from the spans.
 *
 * Every metric is printed as "<name> <value> <unit>"; the last line is
 * one JSON object with the correctness verdict and every metric. Any
 * wrong result or failed self-check makes the exit code non-zero.
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ledger.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else if (key == "--spans")
            args.spans = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
printResult(const Report &report, bool correct, uint64_t attempted,
            uint64_t failed)
{
    for (const Report::Metric &m : report.metrics)
        std::printf("%-36s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &f : report.failures)
        std::printf("FAILED CHECK: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"failures\": [",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < report.failures.size(); ++i)
        std::printf("%s%s", i ? ", " : "",
                    jsonString(report.failures[i]).c_str());
    std::printf("], \"metrics\": {");
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Report::Metric &m = report.metrics[i];
        char value[32] = "null"; // a non-finite value already failed
        if (std::isfinite(m.value))
            std::snprintf(value, sizeof value, "%.17g", m.value);
        std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                    jsonString(m.name).c_str(), value,
                    jsonString(m.unit).c_str());
    }
    std::printf("}}\n");
}

/** End-to-end wall metrics of one window. The latency quantiles are
 *  medians over the window's slices. */
void
reportWall(const WindowResult &w, Report &report)
{
    report.add("wall_req_per_s",
               static_cast<double>(w.completed_in_window) / w.seconds, "1/s");
    report.add("wall_p50_ms", median(sliceQuantiles(w, 0.50)), "ms");
    report.add("wall_p99_ms", median(sliceQuantiles(w, 0.99)), "ms");
    report.add("wall_latency_samples",
               static_cast<double>(w.completed_in_window), "count");
    report.add("host.cpu_us_per_req",
               w.cpu_seconds * 1e6 / static_cast<double>(w.tally.attempted),
               "us");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: heat_ledger --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <file>]\n");
        return 2;
    }
    const WorkloadConfig *config = findWorkload(args.workload);
    if (config == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    try {
        SpanLog log(args.trace);
        SpanLog off(false);
        std::unique_ptr<Fixture> fx;
        std::vector<double> setup_s;
        for (size_t r = 0; r < config->setups; ++r) {
            fx.reset();
            const auto t0 = std::chrono::steady_clock::now();
            fx = setUp(*config, args.seed, log);
            setup_s.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
        }

        Report report;
        uint64_t next_request = 1;
        Tally tally;
        if (!args.trace) {
            const WindowResult w =
                runWindow(*fx, args.seconds, off, next_request);
            reportWall(w, report);
            reportModeled(*fx, w, report, true, false);
            report.add("setup_s", median(setup_s), "s");
            report.add("peak_rss_mb", peakRssMb(), "MB");
            tally = w.tally;
        } else {
            const WindowResult plain =
                runWindow(*fx, args.seconds / 2, off, next_request);
            const WindowResult traced =
                runWindow(*fx, args.seconds / 2, log, next_request);
            reportModeled(*fx, plain, report, false, false);
            reportModeled(*fx, traced, report, false, true);
            report.add("service.submit_us",
                       median(log.durations("service.submit")), "us");
            const double rate_plain =
                static_cast<double>(plain.completed_in_window) /
                plain.seconds;
            const double rate_traced =
                static_cast<double>(traced.completed_in_window) /
                traced.seconds;
            report.add("obs.trace_overhead_pct",
                       100.0 * (rate_plain - rate_traced) / rate_plain, "%");
            runProbes(*fx, plain, log, report);
            for (const auto &[layer, us] : log.layerSelfUs())
                report.add(layer + ".self_ms", us / 1e3, "ms");
            if (!args.spans.empty() && !log.writeChromeTrace(args.spans))
                report.fail("could not write spans to " + args.spans);
            tally = plain.tally;
            tally.merge(traced.tally);
        }

        report.add("requests_completed",
                   static_cast<double>(tally.completed()), "count");
        const uint64_t failed = checkOutcomes(*fx, tally, report);
        const bool correct = failed == 0 && report.failures.empty();
        printResult(report, correct, tally.attempted, failed);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "heat_ledger: %s\n", e.what());
        return 1;
    }
}
