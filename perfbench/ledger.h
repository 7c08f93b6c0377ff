/**
 * @file
 * Shared declarations of the HEAT ledger benchmark (see README.md):
 * workload configuration, the per-run fixture built by set-up, the
 * metric report, and the entry points of the workload runner
 * (workloads.cc) and the per-layer probes (probes.cc).
 */

#ifndef HEAT_PERFBENCH_LEDGER_H
#define HEAT_PERFBENCH_LEDGER_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/keys.h"
#include "fv/params.h"
#include "service/service.h"
#include "spans.h"

namespace perfbench {

using heat::Xoshiro256;
namespace fv = heat::fv;
namespace hw = heat::hw;
namespace compiler = heat::compiler;
namespace service = heat::service;

/** Request kinds a workload mixes. */
enum class Kind : uint8_t
{
    kAdd,
    kMult,
    kPir
};
inline constexpr size_t kKindCount = 3;

/** Service worker threads (one simulated coprocessor each). */
inline constexpr size_t kWorkers = 2;

/** Static description of one workload. */
struct WorkloadConfig
{
    std::string name;
    /** true: FvParams::paper(2); false: the small serving ring. */
    bool paper_params = true;
    size_t tenants = 1;
    /** Fresh ciphertexts per tenant that requests draw operands from. */
    size_t pool = 4;
    /** Resident database shards of the PIR circuit (0: no PIR). */
    size_t shards = 0;
    /** Request mix in percent, indexed by Kind. */
    std::array<uint32_t, kKindCount> mix{};
    /** Closed loop: requests outstanding. Open loop: the client cap. */
    size_t window = 4;
    /** Open loop when > 0: target modeled utilisation of the workers. */
    double utilisation = 0.0;
    /** Set-ups per run; setup_s is their median. */
    size_t setups = 3;
};

/** @return the named workload, or nullptr. */
const WorkloadConfig *findWorkload(const std::string &name);

/** One tenant: keys, operand pool and pinned database. */
struct Tenant
{
    fv::SecretKey sk;
    fv::RelinKeys rlk;
    service::TenantId id = service::kDefaultTenant;
    std::vector<fv::Plaintext> pool_plain;
    std::vector<fv::Ciphertext> pool;
    std::vector<fv::Plaintext> shard_plain;
    std::vector<fv::Ciphertext> shards;
    std::vector<service::PinnedHandle> handles;
};

/** Modeled cost of requests as ServiceStats report it, before the
 *  schedule-dependent batch-dispatch overlap credit. */
struct ModeledCost
{
    uint64_t requests = 0;
    hw::Cycle fpga_cycles = 0;
    std::array<hw::Cycle, hw::kUnitCount> unit_cycles{};
    double dma_us = 0.0;
    double host_us = 0.0;

    /** Modeled microseconds per request. */
    double perRequestUs(const hw::HwConfig &hw) const;
};

/** Stats delta between two snapshots, as a ModeledCost. */
ModeledCost costDelta(const service::ServiceStats &before,
                      const service::ServiceStats &after);

/** Everything set-up builds; the timed windows run against it. */
struct Fixture
{
    const WorkloadConfig *config = nullptr;
    uint64_t seed = 0;
    std::shared_ptr<const fv::FvParams> params;
    std::vector<Tenant> tenants;
    /** The PIR request circuit and its resident compilation. */
    compiler::Circuit pir_circuit;
    std::shared_ptr<const compiler::CompiledCircuit> pir;
    std::unique_ptr<service::ExecutionService> svc;
    /** Reference modeled cost of one request of each kind, measured
     *  alone through the service during warm-up (PIR: cold run). */
    std::array<ModeledCost, kKindCount> reference{};
    /** PIR mask plaintexts (the circuit's MultPlain operands). */
    std::vector<fv::Plaintext> masks;

    // --- request stream (continues across windows) ---------------------
    Xoshiro256 stream{0};
    /** Open loop: modeled arrival of the next request (us). */
    double next_arrival_us = 0.0;
    /** Open loop: mean modeled inter-arrival time (us), derived from
     *  the reference costs, never from a measured makespan. */
    double inter_arrival_us = 0.0;
};

/** Build the fixture (params, keys, pools, service, compile, pin,
 *  warm-up). Spans go under one "setup.run" root. */
std::unique_ptr<Fixture> setUp(const WorkloadConfig &config, uint64_t seed,
                               SpanLog &log);

/** The request a result answers: its kind, tenant and pool operands. */
using RequestKey = std::tuple<Kind, uint8_t, uint16_t, uint16_t>;

/**
 * What the requests of a window turned into, folded as each result
 * arrives so that memory does not grow with the request count (it would
 * otherwise show in peak_rss_mb).
 */
struct Tally
{
    uint64_t attempted = 0;
    /** Shed, rejected or threw, synchronously or from the future. */
    uint64_t threw = 0;
    /** (request, digest of its result) -> how many times it came back. */
    std::map<std::pair<RequestKey, uint64_t>, uint64_t> results;

    uint64_t completed() const { return attempted - threw; }
    void merge(const Tally &other);
};

/** Equal time slices of a window that the wall latency quantiles take
 *  their median over, so that a host stall in a few slices moves neither. */
inline constexpr size_t kWallSlices = 12;

/** Result of one timed window. */
struct WindowResult
{
    double seconds = 0.0;
    uint64_t completed_in_window = 0;
    /** Latency of each request completed in the window, by the slice
     *  it completed in. */
    std::array<std::vector<float>, kWallSlices> slice_latency_ms;
    Tally tally;
    service::ServiceSnapshot before;
    service::ServiceSnapshot after;
    double cpu_seconds = 0.0;
};

/** Run one timed window of @p seconds against the fixture. Request
 *  generation continues the fixture's seeded stream. */
WindowResult runWindow(Fixture &fx, double seconds, SpanLog &log,
                       uint64_t &next_request);

/** Metric report plus failed self-checks. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::string> failures;

    void add(const std::string &name, double value, const std::string &unit);
    void fail(const std::string &what);
};

/**
 * Check every result bit for bit against the fv::Evaluator /
 * compiler::evaluateCircuit oracle, and each oracle result's
 * decryption against plaintext arithmetic. @return failed requests:
 * those that threw plus those that differ.
 */
uint64_t checkOutcomes(const Fixture &fx, const Tally &tally,
                       Report &report);

/**
 * Exact self-checks on the modeled numbers of one window (the hw.*
 * parts sum to modeled_us_per_req; on an all-Mult mix every request
 * costs exactly the reference Mult; verify runs equal the distinct
 * compiled circuits). Adds modeled_us_per_req when @p end_to_end, and
 * the service.* and hw.* per-request layer metrics when @p layers.
 */
void reportModeled(const Fixture &fx, const WindowResult &w, Report &report,
                   bool end_to_end, bool layers);

/** Per-layer probes on a benchmark-owned coprocessor (traced run);
 *  @p untraced supplies the per-request kcycles and CPU time that
 *  hw.wall_share divides. */
void runProbes(const Fixture &fx, const WindowResult &untraced,
               SpanLog &log, Report &report);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Quantile @p q in [0,1] by nearest rank (0 for an empty vector). */
double quantile(std::vector<double> v, double q);

/** Per non-empty slice of @p w: latency quantile @p q. */
std::vector<double> sliceQuantiles(const WindowResult &w, double q);

} // namespace perfbench

#endif // HEAT_PERFBENCH_LEDGER_H
