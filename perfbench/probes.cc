/**
 * @file
 * Per-layer probes of the traced run. Each probe times one public entry
 * point from outside, inside a span, on inputs at the workload's ring:
 * compiler (compileCircuit, runCompiledCircuit[Warm]), verify
 * (verifyCompiledCircuit), hw (Coprocessor::execute of one-instruction
 * programs), the ntt/simd/rns kernels and fv (Evaluator, Decryptor).
 */

#include <functional>

#include "compiler/attribution.h"
#include "fv/evaluator.h"
#include "hw/coprocessor.h"
#include "ledger.h"
#include "ntt/ntt.h"
#include "simd/simd.h"
#include "verify/verify.h"

namespace perfbench {

namespace ntt = heat::ntt;
namespace rns = heat::rns;
namespace simd = heat::simd;
namespace verify = heat::verify;

namespace {

/** Median duration (us) of the spans named @p name. */
double
medianUs(const SpanLog &log, const std::string &name)
{
    return median(log.durations(name));
}

/** Run @p body @p reps times, each inside a span named @p name. */
void
repeat(SpanLog &log, const std::string &name, size_t reps,
       const std::function<void()> &body)
{
    for (size_t r = 0; r < reps; ++r) {
        ScopedSpan s(log, name.c_str());
        body();
    }
}

ntt::RnsPoly
randomPoly(const std::shared_ptr<const rns::RnsBase> &base, size_t n,
           Xoshiro256 &rng)
{
    ntt::RnsPoly poly(base, n);
    for (size_t i = 0; i < poly.residueCount(); ++i) {
        for (auto &x : poly.residue(i))
            x = rng.uniformBelow(base->modulus(i).value());
    }
    return poly;
}

/** Metric-name spelling of an opcode. */
std::string
opName(hw::Opcode op)
{
    switch (op) {
    case hw::Opcode::kNtt:
        return "ntt";
    case hw::Opcode::kIntt:
        return "intt";
    case hw::Opcode::kCoeffMul:
        return "coeff_mul";
    case hw::Opcode::kCoeffAdd:
        return "coeff_add";
    case hw::Opcode::kCoeffSub:
        return "coeff_sub";
    case hw::Opcode::kRearrange:
        return "rearrange";
    case hw::Opcode::kLift:
        return "lift";
    case hw::Opcode::kScale:
        return "scale";
    default:
        return hw::opcodeName(op);
    }
}

hw::Instruction
instr(hw::Opcode op, hw::PolyId dst, hw::PolyId s0 = hw::kNoPoly,
      hw::PolyId s1 = hw::kNoPoly)
{
    hw::Instruction i;
    i.op = op;
    i.dst = dst;
    i.src0 = s0;
    i.src1 = s1;
    return i;
}

/** Compute cycles of a one-instruction program (dispatch excluded). */
hw::Cycle
computeCycles(const hw::ExecStats &s)
{
    return s.fpga_cycles - s.dispatch_cycles;
}

/**
 * Host us per modeled kcycle of each opcode: Coprocessor::execute of a
 * one-instruction hw::Program, timed from outside, over the modeled
 * compute cycles ExecStats reports for it.
 */
std::map<hw::Opcode, double>
probeInstructions(const Fixture &fx, SpanLog &log, size_t reps,
                  Xoshiro256 &rng)
{
    using hw::Opcode;
    const hw::HwConfig &hwc = fx.svc->config().hw;
    const size_t n = fx.params->degree();
    const auto &qbase = fx.params->qBase();
    hw::Coprocessor cp(fx.params, hwc);
    std::map<Opcode, std::vector<double>> us;
    std::map<Opcode, hw::Cycle> cycles;
    const auto timed = [&](const hw::Instruction &in) {
        hw::Program p;
        p.instrs = {in};
        const std::string name = "hw.execute." + opName(in.op);
        hw::ExecStats st;
        SpanId id = kNoSpan;
        {
            ScopedSpan s(log, name.c_str());
            id = s.id();
            st = cp.execute(p);
        }
        us[in.op].push_back(log.durationUs(id));
        cycles[in.op] = computeCycles(st);
    };
    const auto untimed = [&](const hw::Instruction &in) {
        hw::Program p;
        p.instrs = {in};
        cp.execute(p);
    };

    // Transforms: natural -> paired -> NTT -> paired -> natural, each
    // step a one-instruction program on the same record.
    cp.reset();
    const hw::PolyId x = cp.uploadPoly(randomPoly(qbase, n, rng));
    for (size_t r = 0; r < reps; ++r) {
        timed(instr(Opcode::kRearrange, x));
        timed(instr(Opcode::kNtt, x));
        timed(instr(Opcode::kIntt, x));
        untimed(instr(Opcode::kRearrange, x));
    }
    // Coefficient-wise lanes.
    const hw::PolyId a = cp.uploadPoly(randomPoly(qbase, n, rng));
    const hw::PolyId b = cp.uploadPoly(randomPoly(qbase, n, rng));
    const hw::PolyId c = cp.memory().allocate(hw::BaseTag::kQ);
    for (size_t r = 0; r < reps; ++r) {
        timed(instr(Opcode::kCoeffMul, c, a, b));
        timed(instr(Opcode::kCoeffAdd, c, a, b));
        timed(instr(Opcode::kCoeffSub, c, a, b));
    }
    // Lift q -> Q and Scale Q -> q on fresh uploads.
    const ntt::RnsPoly src = randomPoly(qbase, n, rng);
    for (size_t r = 0; r < reps; ++r) {
        cp.reset();
        const hw::PolyId id = cp.uploadPoly(src);
        const hw::PolyId dst = cp.memory().allocate(hw::BaseTag::kQ);
        timed(instr(Opcode::kLift, id));
        timed(instr(Opcode::kScale, dst, id));
    }

    std::map<Opcode, double> rate;
    for (const auto &[op, samples] : us)
        rate[op] = median(samples) / (static_cast<double>(cycles[op]) / 1e3);
    return rate;
}

compiler::Circuit
oneNode(Kind kind)
{
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    b.output(kind == Kind::kAdd ? b.add(x, y) : b.mult(x, y));
    return b.build();
}

} // namespace

void
runProbes(const Fixture &fx, const WindowResult &untraced, SpanLog &log,
          Report &report)
{
    const WorkloadConfig &cfg = *fx.config;
    const hw::HwConfig &hwc = fx.svc->config().hw;
    const Tenant &t0 = fx.tenants[0];
    const size_t n = fx.params->degree();
    const size_t scale = cfg.paper_params ? 1 : 8;
    Xoshiro256 rng(fx.seed ^ 0x5eedull);
    const fv::Evaluator ev(fx.params);

    compiler::CompilerOptions copts;
    copts.hw = hwc;
    copts.noise_check = compiler::NoiseCheck::kReject;
    copts.verify = compiler::VerifyCheck::kOff;
    const auto compile = [&](const compiler::Circuit &c,
                             const compiler::CompilerOptions &o) {
        return std::make_shared<const compiler::CompiledCircuit>(
            compiler::compileCircuit(fx.params, c, o));
    };

    // --- compiler + verify on the workload's own circuit ----------------
    const compiler::Circuit mult_circuit = oneNode(Kind::kMult);
    compiler::CompilerOptions ref_opts = copts;
    const compiler::Circuit &ref_circuit =
        fx.pir ? fx.pir_circuit : mult_circuit;
    if (fx.pir)
        ref_opts.resident_inputs = fx.pir->resident_inputs;
    std::shared_ptr<const compiler::CompiledCircuit> ref;
    repeat(log, "compiler.compile", 5 * scale,
           [&] { ref = compile(ref_circuit, ref_opts); });
    report.add("compiler.compile_ms", medianUs(log, "compiler.compile") / 1e3,
               "ms");
    bool verified = true;
    repeat(log, "verify.verify", 5 * scale, [&] {
        verified = verified && verify::verifyCompiledCircuit(*ref).ok();
    });
    if (!verified)
        report.fail("verifyCompiledCircuit rejected the workload circuit");
    report.add("verify.verify_us", medianUs(log, "verify.verify"), "us");

    // --- compiled execution on a benchmark-owned coprocessor ------------
    hw::Coprocessor cp(fx.params, hwc, &t0.rlk);
    const auto mult = compile(mult_circuit, copts);
    const std::vector<fv::Ciphertext> mult_in = {t0.pool[0], t0.pool[1]};
    const fv::Ciphertext mult_ref = ev.multiply(t0.pool[0], t0.pool[1],
                                                t0.rlk);
    compiler::CircuitRunStats run;
    bool exact = true;
    repeat(log, "compiler.run_mult", 5 * scale, [&] {
        const bool same =
            compiler::runCompiledCircuit(cp, *mult, mult_in, &run).at(0) ==
            mult_ref;
        exact = exact && same;
    });
    const double run_mult_us = medianUs(log, "compiler.run_mult");
    double run_us = run_mult_us;
    if (fx.pir) {
        std::vector<fv::Ciphertext> full = t0.shards;
        full.push_back(t0.pool[0]);
        const fv::Ciphertext pir_ref =
            compiler::evaluateCircuit(ev, &t0.rlk, fx.pir_circuit, full).at(0);
        // The cold run pins the shards that the warm runs reuse.
        const bool cold_same =
            compiler::runCompiledCircuit(cp, *fx.pir, full).at(0) == pir_ref;
        exact = exact && cold_same;
        const std::vector<fv::Ciphertext> query = {t0.pool[0]};
        repeat(log, "compiler.run", 10 * scale, [&] {
            const bool same =
                compiler::runCompiledCircuitWarm(cp, *fx.pir, query, &run)
                    .at(0) == pir_ref;
            exact = exact && same;
        });
        run_us = medianUs(log, "compiler.run");
    }
    if (!exact)
        report.fail("a compiled circuit differs from the oracle");
    report.add("compiler.run_wall_us", run_us, "us");
    report.add("compiler.run_modeled_us", run.modeledUs(hwc), "modeled_us");
    report.add("compiler.dispatches_per_req",
               static_cast<double>(run.dispatches), "count");
    report.add("compiler.host_polys_per_req",
               static_cast<double>(run.uploaded_polys + run.downloaded_polys),
               "count");

    // --- hw: host us per modeled kcycle, per opcode and per unit --------
    const std::map<hw::Opcode, double> rate =
        probeInstructions(fx, log, 5 * scale, rng);
    for (const auto &[op, r] : rate) {
        report.add("hw." + opName(op) + ".host_us_per_kcycle", r,
                   "us/kcycle");
    }
    // Per-unit rate: the opcode rates weighted by the workload's modeled
    // opcode mix (attributeCompiledCircuit of each request kind).
    std::map<hw::Opcode, double> weight;
    for (size_t k = 0; k < kKindCount; ++k) {
        if (cfg.mix[k] == 0)
            continue;
        const auto kind = static_cast<Kind>(k);
        const auto compiled =
            kind == Kind::kPir ? fx.pir : compile(oneNode(kind), copts);
        for (const auto &[op, cyc] :
             compiler::attributeCompiledCircuit(*compiled).op_cycles)
            weight[op] += cfg.mix[k] * static_cast<double>(cyc);
    }
    std::array<double, hw::kUnitCount> unit_w{}, unit_rate{};
    for (const auto &[op, w] : weight) {
        const size_t u = static_cast<size_t>(hw::unitOf(op));
        const auto it = rate.find(op);
        if (w == 0.0)
            continue;
        if (it == rate.end()) {
            report.fail("no host rate for opcode " + opName(op));
            continue;
        }
        unit_w[u] += w;
        unit_rate[u] += w * it->second;
    }
    const ModeledCost c = costDelta(untraced.before.stats,
                                    untraced.after.stats);
    const double reqs = static_cast<double>(c.requests);
    double explained_us = 0.0;
    for (size_t u = 0; u < hw::kUnitCount; ++u) {
        if (unit_w[u] > 0.0) {
            explained_us += static_cast<double>(c.unit_cycles[u]) / 1e3 /
                            reqs * (unit_rate[u] / unit_w[u]);
        }
    }
    const double cpu_us = untraced.cpu_seconds * 1e6 / reqs;
    report.add("host.cpu_us_per_req", cpu_us, "us");
    report.add("hw.wall_share", explained_us / cpu_us, "ratio");

    // --- kernels at the workload's ring ---------------------------------
    const size_t kreps = 200 * scale;
    const ntt::NttTables &tables = fx.params->qContext().tables(0);
    const rns::Modulus &q0 = fx.params->qBase()->modulus(0);
    const ntt::RnsPoly pa = randomPoly(fx.params->qBase(), n, rng);
    const ntt::RnsPoly pb = randomPoly(fx.params->qBase(), n, rng);
    std::vector<uint64_t> buf(pa.residue(0).begin(), pa.residue(0).end());
    repeat(log, "kernels.ntt_fwd", kreps,
           [&] { ntt::forwardNtt(buf, tables); });
    report.add("kernels.ntt_fwd_us", medianUs(log, "kernels.ntt_fwd"), "us");
    const simd::Kernels &kern = simd::active();
    repeat(log, "kernels.dyadic_mul", kreps, [&] {
        kern.mul_mod(buf.data(), pb.residue(0).data(), n, q0);
    });
    report.add("kernels.dyadic_mul_us", medianUs(log, "kernels.dyadic_mul"),
               "us");

    const size_t kq = fx.params->qBase()->size();
    const size_t kp = fx.params->pBase()->size();
    const ntt::RnsPoly full = randomPoly(fx.params->fullBase(), n, rng);
    std::vector<std::vector<uint64_t>> out(kp, std::vector<uint64_t>(n));
    std::vector<const uint64_t *> in_rows;
    std::vector<uint64_t *> out_rows;
    for (size_t i = 0; i < kq + kp; ++i)
        in_rows.push_back(full.residue(i).data());
    for (auto &row : out)
        out_rows.push_back(row.data());
    const rns::FastBaseConverter &lift = fx.params->liftConverter();
    repeat(log, "kernels.lift_batch", kreps / 4, [&] {
        lift.convertBatch(in_rows.data(), out_rows.data(), n);
    });
    report.add("kernels.lift_batch_us", medianUs(log, "kernels.lift_batch"),
               "us");
    const rns::ScaleRounder &scaler = fx.params->scaler();
    repeat(log, "kernels.scale_batch", kreps / 4, [&] {
        scaler.scaleBatch(in_rows.data(), out_rows.data(), n);
    });
    report.add("kernels.scale_batch_us",
               medianUs(log, "kernels.scale_batch"), "us");
    report.add("kernels.simd_level",
               static_cast<double>(static_cast<int>(simd::activeLevel())),
               "level");

    // --- fv: the oracle evaluator ---------------------------------------
    repeat(log, "fv.eval_mult", 5 * scale,
           [&] { (void)ev.multiply(t0.pool[0], t0.pool[1], t0.rlk); });
    const double eval_mult_us = medianUs(log, "fv.eval_mult");
    report.add("fv.eval_mult_ms", eval_mult_us / 1e3, "ms");
    const fv::Decryptor dec(fx.params, t0.sk);
    repeat(log, "fv.decrypt", 5 * scale, [&] { (void)dec.decrypt(mult_ref); });
    report.add("fv.decrypt_us", medianUs(log, "fv.decrypt"), "us");
    report.add("hw.sim_vs_eval_mult", run_mult_us / eval_mult_us, "ratio");
}

} // namespace perfbench
