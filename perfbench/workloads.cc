/**
 * @file
 * The three workloads: set-up, the timed client loop, correctness
 * checks against the oracle, and the exact checks on modeled numbers.
 * Everything reaches the library through ExecutionService's public
 * submit API, plus fv and compiler::evaluateCircuit as the oracle.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <deque>
#include <future>
#include <map>
#include <tuple>

#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "ledger.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Longest the client waits on one request before it looks at the
 *  others again; it bounds the error of a measured latency. */
constexpr auto kPoll = std::chrono::microseconds(200);

// Why each workload exists is recorded in README.md. The open-loop cap
// (256) keeps enough queued work that a descheduled client thread does
// not starve the workers.
const WorkloadConfig kWorkloads[] = {
    // name, paper ring, tenants, pool, shards, mix {add,mult,pir},
    // window, utilisation, set-ups
    {"mult-paper", true, 1, 4, 0, {0, 100, 0}, 4, 0.0, 5},
    {"pir-paper", true, 1, 4, 4, {0, 0, 100}, 4, 0.0, 5},
    {"serving-mixed", false, 3, 8, 8, {70, 15, 15}, 256, 0.8, 41},
};

/** Independent sub-seed for stream @p tag of run seed @p seed. */
uint64_t
subSeed(uint64_t seed, uint64_t tag)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::shared_ptr<const fv::FvParams>
makeParams(const WorkloadConfig &config)
{
    if (config.paper_params)
        return fv::FvParams::paper(2);
    // The small serving ring: each request is cheap on the host, so
    // the service layer's own costs are visible.
    fv::FvConfig cfg;
    cfg.degree = 256;
    cfg.plain_modulus = 257;
    cfg.sigma = 3.2;
    cfg.q_prime_count = 3;
    return fv::FvParams::create(cfg);
}

fv::Plaintext
randomPlain(const fv::FvParams &params, Xoshiro256 &rng)
{
    fv::Plaintext m;
    m.coeffs.resize(params.degree());
    for (auto &c : m.coeffs)
        c = rng.uniformBelow(params.plainModulus());
    return m;
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** 64-bit digest of a ciphertext's residues (bit-exact comparison). */
uint64_t
hashCiphertext(const fv::Ciphertext &ct)
{
    uint64_t h = 0xcbf29ce484222325ull ^ ct.level;
    for (const auto &poly : ct.polys) {
        for (uint64_t w : poly.data())
            h = (h ^ w) * 0x100000001b3ull;
        h = (h ^ poly.data().size()) * 0x100000001b3ull;
    }
    return h;
}

/** One generated request. */
struct Request
{
    Kind kind = Kind::kAdd;
    uint8_t tenant = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    double arrival_us = -1.0;
};

Request
nextRequest(Fixture &fx)
{
    const WorkloadConfig &cfg = *fx.config;
    Request r;
    r.tenant = static_cast<uint8_t>(fx.stream.uniformBelow(cfg.tenants));
    const uint64_t pick = fx.stream.uniformBelow(100);
    uint64_t acc = 0;
    for (size_t k = 0; k < kKindCount; ++k) {
        acc += cfg.mix[k];
        if (pick < acc) {
            r.kind = static_cast<Kind>(k);
            break;
        }
    }
    r.a = static_cast<uint16_t>(fx.stream.uniformBelow(cfg.pool));
    r.b = static_cast<uint16_t>(fx.stream.uniformBelow(cfg.pool));
    if (r.kind == Kind::kPir)
        r.b = 0; // the query is the only request operand
    if (cfg.utilisation > 0.0) {
        fx.next_arrival_us += -std::log(1.0 - fx.stream.uniformDouble()) *
                              fx.inter_arrival_us;
        r.arrival_us = fx.next_arrival_us;
    }
    return r;
}

/** A submitted request whose future the client still holds. */
struct Pending
{
    Kind kind = Kind::kAdd;
    RequestKey key;
    std::future<fv::Ciphertext> op;
    std::future<std::vector<fv::Ciphertext>> circuit;
    Clock::time_point submitted;
    SpanId span = kNoSpan;

    bool
    ready() const
    {
        const auto zero = std::chrono::seconds(0);
        return kind == Kind::kPir
                   ? circuit.wait_for(zero) == std::future_status::ready
                   : op.wait_for(zero) == std::future_status::ready;
    }

    void
    waitFor(Clock::duration d) const
    {
        if (kind == Kind::kPir)
            circuit.wait_for(d);
        else
            op.wait_for(d);
    }

    /** Digest of the result; throws what the request threw. */
    uint64_t
    take()
    {
        if (kind == Kind::kPir)
            return hashCiphertext(circuit.get().at(0));
        return hashCiphertext(op.get());
    }
};

/**
 * Submit @p r. A synchronous throw (shed, rejected, invalid) is a failed
 * request: it is counted and no Pending is returned.
 */
bool
submit(Fixture &fx, const Request &r, SpanLog &log, uint64_t request_id,
       Tally &tally, Pending &out, SpanId parent = kNoSpan)
{
    Tenant &t = fx.tenants[r.tenant];
    ++tally.attempted;
    out.kind = r.kind;
    out.key = RequestKey{r.kind, r.tenant, r.a, r.b};
    out.span = log.open("client.request", request_id, parent);
    out.submitted = Clock::now();
    try {
        ScopedSpan s(log, "service.submit", request_id, out.span);
        switch (r.kind) {
        case Kind::kAdd:
        case Kind::kMult:
            out.op = fx.svc->submit(t.id,
                                    r.kind == Kind::kAdd
                                        ? service::Op::kAdd
                                        : service::Op::kMult,
                                    t.pool[r.a], t.pool[r.b], r.arrival_us);
            break;
        case Kind::kPir:
            out.circuit = fx.svc->submitCompiledResident(
                t.id, fx.pir, t.handles, {t.pool[r.a]}, r.arrival_us);
            break;
        }
    } catch (const std::exception &) {
        ++tally.threw;
        log.close(out.span);
        return false;
    }
    return true;
}

/** Fold the result of @p p into @p tally; @return whether it threw. */
bool
collect(Pending &p, Tally &tally)
{
    try {
        ++tally.results[{p.key, p.take()}];
        return false;
    } catch (const std::exception &) {
        ++tally.threw;
        return true;
    }
}

/** Submit @p r and wait for it (set-up only). */
bool
runAlone(Fixture &fx, const Request &r, SpanLog &log, SpanId parent)
{
    Tally tally;
    Pending p;
    if (!submit(fx, r, log, 0, tally, p, parent))
        return false;
    if (collect(p, tally))
        return false;
    log.close(p.span);
    return true;
}

compiler::Circuit
pirCircuit(size_t shards, const std::vector<fv::Plaintext> &masks)
{
    compiler::CircuitBuilder b;
    std::vector<compiler::ValueId> db;
    for (size_t k = 0; k < shards; ++k)
        db.push_back(b.input());
    const compiler::ValueId query = b.input();
    compiler::ValueId acc = compiler::kNoValue;
    for (size_t k = 0; k < shards; ++k) {
        const compiler::ValueId sel = b.multPlain(db[k], masks[k]);
        acc = (k == 0) ? sel : b.add(acc, sel);
    }
    b.output(b.add(acc, query));
    return b.build();
}

/** c = a * b in Z_t[x]/(x^n + 1). */
std::vector<uint64_t>
negacyclic(const std::vector<uint64_t> &a, const std::vector<uint64_t> &b,
           uint64_t t)
{
    const size_t n = a.size();
    std::vector<uint64_t> pos(n, 0), neg(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (a[i] == 0)
            continue;
        for (size_t j = 0; j < n; ++j) {
            const uint64_t p = a[i] * b[j];
            if (i + j < n)
                pos[i + j] += p;
            else
                neg[i + j - n] += p;
        }
    }
    std::vector<uint64_t> c(n);
    for (size_t k = 0; k < n; ++k)
        c[k] = (pos[k] % t + t - neg[k] % t) % t;
    return c;
}

} // namespace

const WorkloadConfig *
findWorkload(const std::string &name)
{
    for (const WorkloadConfig &w : kWorkloads) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

double
ModeledCost::perRequestUs(const hw::HwConfig &hw) const
{
    if (requests == 0)
        return 0.0;
    return (hw.cyclesToUs(fpga_cycles) + dma_us + host_us) /
           static_cast<double>(requests);
}

ModeledCost
costDelta(const service::ServiceStats &before,
          const service::ServiceStats &after)
{
    ModeledCost c;
    c.requests = (after.ops_completed + after.circuits_completed) -
                 (before.ops_completed + before.circuits_completed);
    c.fpga_cycles = after.fpga_cycles - before.fpga_cycles;
    for (size_t u = 0; u < hw::kUnitCount; ++u)
        c.unit_cycles[u] = after.unit_cycles[u] - before.unit_cycles[u];
    c.dma_us = after.dma_us - before.dma_us;
    c.host_us = after.host_us - before.host_us;
    return c;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void
Tally::merge(const Tally &other)
{
    attempted += other.attempted;
    threw += other.threw;
    for (const auto &[result, count] : other.results)
        results[result] += count;
}

std::vector<double>
sliceQuantiles(const WindowResult &w, double q)
{
    std::vector<double> out;
    for (const std::vector<float> &s : w.slice_latency_ms) {
        if (!s.empty())
            out.push_back(quantile({s.begin(), s.end()}, q));
    }
    return out;
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value))
        fail("metric " + name + " is not finite");
    metrics.push_back(Metric{name, value, unit});
}

void
Report::fail(const std::string &what)
{
    failures.push_back(what);
}

std::unique_ptr<Fixture>
setUp(const WorkloadConfig &config, uint64_t seed, SpanLog &log)
{
    ScopedSpan root(log, "setup.run");
    auto fx = std::make_unique<Fixture>();
    fx->config = &config;
    fx->seed = seed;
    fx->stream = Xoshiro256(subSeed(seed, 1));
    Xoshiro256 rng(subSeed(seed, 2));
    {
        ScopedSpan s(log, "setup.params", 0, root.id());
        fx->params = makeParams(config);
    }
    const fv::FvParams &params = *fx->params;
    fx->tenants.resize(config.tenants);
    std::vector<fv::Encryptor> encryptors;
    {
        ScopedSpan s(log, "setup.keygen", 0, root.id());
        for (size_t i = 0; i < config.tenants; ++i) {
            Tenant &t = fx->tenants[i];
            fv::KeyGenerator keygen(fx->params, subSeed(seed, 100 + i));
            t.sk = keygen.generateSecretKey();
            fv::PublicKey pk = keygen.generatePublicKey(t.sk);
            t.rlk = keygen.generateRelinKeys(t.sk);
            encryptors.emplace_back(fx->params, std::move(pk),
                                    subSeed(seed, 200 + i));
        }
    }
    {
        ScopedSpan s(log, "setup.encrypt", 0, root.id());
        for (size_t i = 0; i < config.tenants; ++i) {
            Tenant &t = fx->tenants[i];
            for (size_t k = 0; k < config.pool; ++k) {
                t.pool_plain.push_back(randomPlain(params, rng));
                t.pool.push_back(encryptors[i].encrypt(t.pool_plain.back()));
            }
            for (size_t k = 0; k < config.shards; ++k) {
                t.shard_plain.push_back(randomPlain(params, rng));
                t.shards.push_back(encryptors[i].encrypt(t.shard_plain.back()));
            }
        }
    }

    service::ServiceConfig scfg;
    scfg.workers = kWorkers;
    scfg.hw = hw::HwConfig::paper();
    // No unverified or noise-exhausted program is ever measured.
    scfg.verify = compiler::VerifyCheck::kReject;
    scfg.admission = compiler::NoiseCheck::kReject;
    {
        ScopedSpan s(log, "setup.service", 0, root.id());
        fx->svc = std::make_unique<service::ExecutionService>(
            fx->params, fx->tenants[0].rlk, scfg);
        for (size_t i = 1; i < config.tenants; ++i) {
            fx->tenants[i].id = fx->svc->registerTenant(
                "tenant-" + std::to_string(i), fx->tenants[i].rlk);
        }
    }
    if (config.shards > 0) {
        ScopedSpan s(log, "setup.compile", 0, root.id());
        for (size_t k = 0; k < config.shards; ++k)
            fx->masks.push_back(randomPlain(params, rng));
        fx->pir_circuit = pirCircuit(config.shards, fx->masks);
        compiler::CompilerOptions copts;
        copts.hw = scfg.hw;
        copts.noise_check = compiler::NoiseCheck::kReject;
        // The service verifies at admission; that pass is the one
        // service.verify_runs counts.
        copts.verify = compiler::VerifyCheck::kOff;
        for (uint32_t k = 0; k < config.shards; ++k)
            copts.resident_inputs.push_back(k);
        fx->pir = std::make_shared<const compiler::CompiledCircuit>(
            compiler::compileCircuit(fx->params, fx->pir_circuit, copts));
    }
    {
        ScopedSpan s(log, "setup.pin", 0, root.id());
        for (Tenant &t : fx->tenants) {
            for (const fv::Ciphertext &ct : t.shards)
                t.handles.push_back(fx->svc->pinInput(t.id, ct));
        }
    }
    {
        // Warm-up: one request of each kind per tenant, alone, gives
        // the reference modeled cost of each kind (a pure function of
        // the parameters: nothing else is in flight). Closed loops
        // then fill their window once.
        ScopedSpan s(log, "setup.warmup", 0, root.id());
        double warmup_us = 0.0;
        for (size_t k = 0; k < kKindCount; ++k) {
            if (config.mix[k] == 0)
                continue;
            for (size_t i = 0; i < config.tenants; ++i) {
                const service::ServiceStats before = fx->svc->stats();
                Request r;
                r.kind = static_cast<Kind>(k);
                r.tenant = static_cast<uint8_t>(i);
                r.b = 1;
                if (!runAlone(*fx, r, log, s.id()))
                    throw std::runtime_error("warm-up request failed");
                fx->svc->drain();
                const ModeledCost c = costDelta(before, fx->svc->stats());
                if (i == 0)
                    fx->reference[k] = c;
                warmup_us += c.perRequestUs(scfg.hw);
            }
        }
        if (config.utilisation > 0.0) {
            double mean_us = 0.0;
            for (size_t k = 0; k < kKindCount; ++k) {
                mean_us += config.mix[k] / 100.0 *
                           fx->reference[k].perRequestUs(scfg.hw);
            }
            fx->inter_arrival_us =
                mean_us /
                (config.utilisation * static_cast<double>(kWorkers));
            // Arrivals start once every warm-up request could have
            // finished on any worker.
            fx->next_arrival_us = warmup_us;
        } else {
            Tally tally;
            std::vector<Pending> fill(config.window);
            for (Pending &p : fill) {
                if (!submit(*fx, nextRequest(*fx), log, 0, tally, p,
                            s.id()))
                    throw std::runtime_error("warm-up request failed");
            }
            for (Pending &p : fill) {
                if (collect(p, tally))
                    throw std::runtime_error("warm-up request failed");
                log.close(p.span);
            }
        }
        fx->svc->drain();
    }
    return fx;
}

WindowResult
runWindow(Fixture &fx, double window_s, SpanLog &log, uint64_t &next_request)
{
    WindowResult w;
    fx.svc->drain();
    w.before = fx.svc->snapshot();
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(window_s));

    std::deque<Pending> pending;
    const auto retire = [&](Pending &p, Clock::time_point ready) {
        const bool threw = collect(p, w.tally);
        log.close(p.span);
        if (ready <= deadline && !threw) {
            ++w.completed_in_window;
            const auto slice = static_cast<size_t>(
                seconds(ready - t0) / window_s *
                static_cast<double>(kWallSlices));
            w.slice_latency_ms[std::min(slice, kWallSlices - 1)].push_back(
                static_cast<float>(1e3 * seconds(ready - p.submitted)));
        }
    };
    for (;;) {
        while (pending.size() < fx.config->window && Clock::now() < deadline) {
            Pending p;
            if (submit(fx, nextRequest(fx), log, next_request++, w.tally, p))
                pending.push_back(std::move(p));
        }
        if (pending.empty())
            break;
        // Wait on the oldest request only briefly, so that a slow one
        // neither delays retiring the requests behind it nor stops the
        // client topping up its window.
        pending.front().waitFor(kPoll);
        const Clock::time_point ready = Clock::now();
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->ready()) {
                retire(*it, ready);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
    }
    w.seconds = seconds(deadline - t0);
    w.cpu_seconds = cpuSeconds() - cpu0;
    fx.svc->drain();
    w.after = fx.svc->snapshot();
    return w;
}

uint64_t
checkOutcomes(const Fixture &fx, const Tally &tally, Report &report)
{
    // Oracle digest, and whether the oracle decrypts to the plaintext
    // arithmetic (a request against a wrong oracle fails too).
    std::map<RequestKey, std::pair<uint64_t, bool>> expected;
    const fv::Evaluator ev(fx.params);
    std::vector<fv::Decryptor> decryptors;
    for (const Tenant &tn : fx.tenants)
        decryptors.emplace_back(fx.params, tn.sk);
    const uint64_t t = fx.params->plainModulus();
    const size_t n = fx.params->degree();
    uint64_t failed = tally.threw;
    for (const auto &[result, count] : tally.results) {
        const auto &[key, hash] = result;
        const auto [kind, tenant, a, b] = key;
        auto it = expected.find(key);
        if (it == expected.end()) {
            const Tenant &tn = fx.tenants[tenant];
            fv::Ciphertext ref;
            std::vector<uint64_t> plain(n, 0);
            const auto &pa = tn.pool_plain[a].coeffs;
            const auto &pb = tn.pool_plain[b].coeffs;
            switch (kind) {
            case Kind::kAdd:
                ref = ev.add(tn.pool[a], tn.pool[b]);
                for (size_t j = 0; j < n; ++j)
                    plain[j] = (pa[j] + pb[j]) % t;
                break;
            case Kind::kMult:
                ref = ev.multiply(tn.pool[a], tn.pool[b], tn.rlk);
                plain = negacyclic(pa, pb, t);
                break;
            case Kind::kPir: {
                std::vector<fv::Ciphertext> inputs = tn.shards;
                inputs.push_back(tn.pool[a]);
                ref = compiler::evaluateCircuit(ev, &tn.rlk, fx.pir_circuit,
                                                inputs)
                          .at(0);
                plain = pa;
                for (size_t k = 0; k < tn.shards.size(); ++k) {
                    const std::vector<uint64_t> prod = negacyclic(
                        tn.shard_plain[k].coeffs, fx.masks[k].coeffs, t);
                    for (size_t j = 0; j < n; ++j)
                        plain[j] = (plain[j] + prod[j]) % t;
                }
                break;
            }
            }
            fv::Plaintext dec = decryptors[tenant].decrypt(ref);
            dec.coeffs.resize(n, 0);
            const bool decrypts = dec.coeffs == plain;
            if (!decrypts)
                report.fail("oracle result decrypts to the wrong value");
            it = expected.emplace(key, std::pair{hashCiphertext(ref), decrypts})
                     .first;
        }
        if (hash != it->second.first || !it->second.second)
            failed += count;
    }
    if (failed > 0) {
        report.fail(std::to_string(failed) +
                    " requests failed or differ from the oracle");
    }
    return failed;
}

void
reportModeled(const Fixture &fx, const WindowResult &w, Report &report,
              bool end_to_end, bool layers)
{
    const hw::HwConfig &hwc = fx.svc->config().hw;
    const service::ServiceStats &s0 = w.before.stats;
    const service::ServiceStats &s1 = w.after.stats;
    const ModeledCost c = costDelta(s0, s1);
    const uint64_t completed = w.tally.completed();
    if (c.requests != completed || c.requests == 0) {
        report.fail("service completed " + std::to_string(c.requests) +
                    " requests, client retired " +
                    std::to_string(completed));
        return;
    }
    const double n = static_cast<double>(c.requests);
    const double modeled = c.perRequestUs(hwc);
    const auto close = [](double x, double y) {
        return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
    };

    // The hw.* parts: five units, key DMA and host transfers.
    const std::pair<hw::Unit, const char *> parts[] = {
        {hw::Unit::kNttUnit, "hw.ntt.kcycles_per_req"},
        {hw::Unit::kLiftUnit, "hw.lift.kcycles_per_req"},
        {hw::Unit::kScaleUnit, "hw.scale.kcycles_per_req"},
        {hw::Unit::kCoeffUnit, "hw.coeff.kcycles_per_req"},
        {hw::Unit::kArmUnit, "hw.arm.kcycles_per_req"},
    };
    hw::Cycle unit_sum = 0;
    hw::Cycle listed_sum = 0;
    double parts_us = (c.dma_us + c.host_us) / n;
    for (size_t u = 0; u < hw::kUnitCount; ++u)
        unit_sum += c.unit_cycles[u];
    for (const auto &[unit, name] : parts) {
        const hw::Cycle cyc = c.unit_cycles[static_cast<size_t>(unit)];
        listed_sum += cyc;
        parts_us += hwc.cyclesToUs(cyc) / n;
        if (layers)
            report.add(name, static_cast<double>(cyc) / 1e3 / n, "kcycles");
    }
    if (unit_sum != c.fpga_cycles || listed_sum != c.fpga_cycles)
        report.fail("hw unit cycles do not sum to fpga_cycles");
    if (!close(parts_us, modeled))
        report.fail("hw.* parts do not sum to modeled_us_per_req");

    // An all-Mult mix: every request is the reference Mult, exactly.
    const size_t mult = static_cast<size_t>(Kind::kMult);
    if (fx.config->mix[mult] == 100) {
        const ModeledCost &ref = fx.reference[mult];
        bool same = c.fpga_cycles == c.requests * ref.fpga_cycles &&
                    close(c.dma_us / n, ref.dma_us) &&
                    close(c.host_us / n, ref.host_us) &&
                    close(modeled, ref.perRequestUs(hwc));
        for (size_t u = 0; u < hw::kUnitCount; ++u)
            same = same && c.unit_cycles[u] == c.requests * ref.unit_cycles[u];
        if (!same)
            report.fail("modeled_us_per_req differs from the reference Mult");
    }
    // The PIR circuit is the only compiled circuit any workload submits.
    const uint64_t distinct_circuits = fx.pir ? 1 : 0;
    if (s1.circuits_verified != distinct_circuits) {
        report.fail("service verified " +
                    std::to_string(s1.circuits_verified) +
                    " circuits, expected " +
                    std::to_string(distinct_circuits));
    }
    if (s1.ops_failed != s0.ops_failed || s1.ops_shed != s0.ops_shed ||
        s1.ops_rejected != s0.ops_rejected)
        report.fail("the service failed, shed or rejected requests");

    if (end_to_end)
        report.add("modeled_us_per_req", modeled, "modeled_us");
    if (!layers)
        return;
    report.add("hw.dma_us_per_req", c.dma_us / n, "modeled_us");
    report.add("hw.host_io_us_per_req", c.host_us / n, "modeled_us");
    const double batches = static_cast<double>(s1.batches - s0.batches);
    report.add("service.batch_size", batches > 0 ? n / batches : 0.0,
               "req/batch");
    report.add("service.key_swaps_per_req",
               static_cast<double>(s1.key_swaps - s0.key_swaps) / n,
               "swaps/req");
    const double warm =
        static_cast<double>(s1.resident_warm_runs - s0.resident_warm_runs);
    const double cold =
        static_cast<double>(s1.resident_cold_runs - s0.resident_cold_runs);
    report.add("service.resident_hit_ratio",
               warm + cold > 0 ? warm / (warm + cold) : 0.0, "ratio");
    report.add("service.verify_runs",
               static_cast<double>(s1.circuits_verified), "count");
    report.add("service.modeled_p50_us", w.after.latency.p50_us,
               "modeled_us");
    report.add("service.modeled_p99_us", w.after.latency.p99_us,
               "modeled_us");
    report.add("service.modeled_makespan_us", s1.makespan_us, "modeled_us");
}

} // namespace perfbench
