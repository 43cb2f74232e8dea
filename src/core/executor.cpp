#include "src/core/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "src/approx/polyeval.h"
#include "src/core/telemetry.h"
#include "src/core/thread_pool.h"

namespace orion::core {

namespace {

/** Static span label of one program instruction kind. */
const char*
op_span_name(Instruction::Op op)
{
    switch (op) {
    case Instruction::Op::kInput: return "exec.input";
    case Instruction::Op::kBootstrap: return "exec.bootstrap";
    case Instruction::Op::kLinear: return "exec.linear";
    case Instruction::Op::kActivation: return "exec.activation";
    case Instruction::Op::kMul: return "exec.mul";
    case Instruction::Op::kScale: return "exec.scale";
    case Instruction::Op::kAdd: return "exec.add";
    case Instruction::Op::kOutput: return "exec.output";
    }
    return "exec.unknown";
}

/** Merges one instruction's wall time into the per-layer breakdown. */
void
charge_layer(std::vector<LayerTiming>& times, int layer_id, double seconds)
{
    if (!times.empty() && times.back().layer_id == layer_id) {
        times.back().seconds += seconds;
        return;
    }
    times.push_back({layer_id, seconds});
}

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * The one instruction walk behind both backends. It owns everything they
 * share: the values map, the symbolic level of every value and the
 * operand-level checks against it, the program's bootstrap / rotation /
 * pmult counts, one exec.* span and one layer_times charge per
 * instruction, and the wall clock. A backend supplies only the per-op
 * arithmetic on its Value type. Returns the kOutput operand.
 */
template <class Backend, class Result>
typename Backend::Value
walk_program(const CompiledNetwork& cn, Backend& be, Result& result)
{
    using Value = typename Backend::Value;
    const auto t0 = std::chrono::steady_clock::now();
    std::map<int, Value> values;
    std::map<int, int> level;
    Value out;

    for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
        const Instruction& ins = cn.program[idx];
        const auto ins_t0 = std::chrono::steady_clock::now();
        telemetry::SpanGuard ins_span(op_span_name(ins.op), ins.layer_id);
        const auto operand = [&](int v, int min_level) -> const Value& {
            ORION_CHECK(level.at(v) >= min_level,
                        "operand of " << describe_instruction(ins)
                                      << " below its exec level");
            return values.at(v);
        };
        switch (ins.op) {
        case Instruction::Op::kInput:
            values[ins.value] = be.input(ins);
            level[ins.value] = ins.level;
            break;
        case Instruction::Op::kBootstrap:
            values[ins.value] = be.bootstrap(idx, ins, operand(ins.a, 0));
            level[ins.value] = cn.l_eff;
            result.bootstraps += ins.cts;
            break;
        case Instruction::Op::kLinear: {
            const LinearLayerData& data =
                cn.linears[static_cast<std::size_t>(ins.payload)];
            values[ins.value] =
                be.linear(idx, ins, data, operand(ins.a, ins.level));
            level[ins.value] = ins.level - 1;
            result.rotations += data.stats.total_rotations();
            result.pmults += data.stats.pmults;
            break;
        }
        case Instruction::Op::kActivation: {
            const ActivationData& data =
                cn.activations[static_cast<std::size_t>(ins.payload)];
            const Value& a = operand(ins.a, ins.level);
            ORION_CHECK(ins.level >= data.depth,
                        "not enough levels for activation");
            values[ins.value] = be.activation(idx, ins, data, a);
            level[ins.value] = ins.level - data.depth;
            break;
        }
        case Instruction::Op::kMul:
            values[ins.value] = be.mul(ins, operand(ins.a, ins.level),
                                       operand(ins.b, ins.level));
            level[ins.value] = ins.level - 1;
            break;
        case Instruction::Op::kScale:
            values[ins.value] = be.scale(idx, ins, values.at(ins.a));
            level[ins.value] = ins.level - 1;
            result.pmults += ins.cts;
            break;
        case Instruction::Op::kAdd:
            values[ins.value] = be.add(ins, operand(ins.a, ins.level),
                                       operand(ins.b, ins.level));
            level[ins.value] = ins.level;
            break;
        case Instruction::Op::kOutput:
            // The values map dies with this call; no need to copy the
            // (possibly megabytes of) output.
            out = std::move(values.at(ins.a));
            break;
        }
        charge_layer(result.layer_times, ins.layer_id,
                     seconds_since(ins_t0));
    }
    result.wall_seconds = seconds_since(t0);
    return out;
}

/** Rejects an empty batch or one beyond the program's lane capacity. */
void
check_batch_count(const CompiledNetwork& cn, std::size_t count)
{
    ORION_CHECK(count >= 1, "batch must have at least one sample");
    ORION_CHECK(count <= static_cast<std::size_t>(cn.batch),
                "batch_count " << count << " > program capacity "
                               << cn.batch << " for layer "
                               << cn.batch_limit_layer);
}

/** Checks a batch of logical inputs and scales it by input_nu. */
std::vector<std::vector<double>>
normalize_inputs(const CompiledNetwork& cn,
                 const std::vector<std::vector<double>>& inputs)
{
    check_batch_count(cn, inputs.size());
    std::vector<std::vector<double>> normalized = inputs;
    for (std::vector<double>& sample : normalized) {
        ORION_CHECK(sample.size() == cn.input_shape.size(),
                    "input size mismatch: got "
                        << sample.size() << ", program expects "
                        << cn.input_shape.size());
        for (double& x : sample) x *= cn.input_nu;
    }
    return normalized;
}

/** A linear layer's folded bias as one logical (c, h, w) output tensor. */
std::vector<double>
bias_tensor(const LinearLayerData& data)
{
    if (data.kind == nn::LayerKind::kLinear) return data.folded_bias;
    const u64 hw =
        static_cast<u64>(data.out_layout.height) * data.out_layout.width;
    std::vector<double> t(data.out_layout.logical_size(), 0.0);
    for (std::size_t c = 0; c < data.folded_bias.size(); ++c) {
        std::fill_n(t.begin() + static_cast<std::ptrdiff_t>(c * hw), hw,
                    data.folded_bias[c]);
    }
    return t;
}

/** Dense or convolutional layer on one cleartext sample, bias included. */
std::vector<double>
linear_reference(const LinearLayerData& data, const std::vector<double>& x)
{
    std::vector<double> y;
    if (data.kind == nn::LayerKind::kLinear) {
        y.assign(static_cast<std::size_t>(data.out_features), 0.0);
        for (int r = 0; r < data.out_features; ++r) {
            double acc = 0.0;
            const double* w = data.folded_weights.data() +
                              static_cast<std::size_t>(r) * data.in_features;
            for (int c = 0; c < data.in_features; ++c) {
                acc += w[c] * x[static_cast<std::size_t>(c)];
            }
            y[static_cast<std::size_t>(r)] = acc;
        }
    } else {
        y = lin::conv2d_reference(data.conv, data.folded_weights, x,
                                  data.in_layout.height,
                                  data.in_layout.width);
    }
    if (!data.folded_bias.empty()) {
        const std::vector<double> bias = bias_tensor(data);
        for (std::size_t i = 0; i < bias.size(); ++i) y[i] += bias[i];
    }
    return y;
}

/**
 * Cleartext arithmetic of the simulation backend. A value is the logical
 * tensors of every batch lane, concatenated. Each op also charges the
 * cost model, independently of the compiler's own total (the two
 * agreeing checks the placement).
 */
struct SimBackend {
    using Value = std::vector<double>;

    const CompiledNetwork& cn;
    const std::vector<std::vector<double>>& inputs;
    ckks::Sampler& noise;
    double noise_std;
    double modeled = 0.0;

    Value
    input(const Instruction&)
    {
        Value v;
        for (const std::vector<double>& x : normalize_inputs(cn, inputs)) {
            v.insert(v.end(), x.begin(), x.end());
        }
        return v;
    }

    Value
    bootstrap(std::size_t, const Instruction& ins, const Value& a)
    {
        modeled += static_cast<double>(ins.cts) *
                   cn.cost_model.bootstrap(cn.l_eff);
        Value v = a;
        if (noise_std > 0.0) {  // normal_distribution requires sigma > 0
            for (double& x : v) x += noise.sample_normal(noise_std);
        }
        return v;
    }

    Value
    linear(std::size_t, const Instruction& ins, const LinearLayerData& data,
           const Value& a)
    {
        modeled += cn.cost_model.linear_layer(data.stats, ins.level);
        const std::size_t n = a.size() / inputs.size();
        Value v;
        for (auto lane = a.begin(); lane != a.end(); lane += n) {
            const std::vector<double> y =
                linear_reference(data, std::vector<double>(lane, lane + n));
            v.insert(v.end(), y.begin(), y.end());
        }
        return v;
    }

    Value
    activation(std::size_t, const Instruction& ins,
               const ActivationData& data, const Value& a)
    {
        modeled += cn.cost_model.activation(data.stage_degrees, ins.level,
                                            ins.cts, false);
        Value v = a;
        for (double& x : v) x = data.approx_f(x);
        return v;
    }

    Value
    mul(const Instruction& ins, const Value& a, const Value& b)
    {
        ORION_CHECK(a.size() == b.size(), "Mul operand size mismatch");
        modeled += static_cast<double>(ins.cts) *
                   (cn.cost_model.hmult(ins.level) +
                    cn.cost_model.rescale(ins.level));
        Value v(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) v[i] = a[i] * b[i];
        return v;
    }

    Value
    scale(std::size_t, const Instruction& ins, const Value& a)
    {
        modeled += static_cast<double>(ins.cts) *
                   (cn.cost_model.pmult(ins.level) +
                    cn.cost_model.rescale(ins.level));
        Value v = a;
        for (double& x : v) x *= ins.scale_factor;
        return v;
    }

    Value
    add(const Instruction& ins, const Value& a, const Value& b)
    {
        ORION_CHECK(a.size() == b.size(), "Add operand size mismatch");
        modeled +=
            static_cast<double>(ins.cts) * cn.cost_model.hadd(ins.level);
        Value v(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) v[i] = a[i] + b[i];
        return v;
    }
};

/** The program's (unique) input instruction. */
const Instruction&
input_instruction(const CompiledNetwork& cn)
{
    const auto it = std::find_if(
        cn.program.begin(), cn.program.end(), [](const Instruction& ins) {
            return ins.op == Instruction::Op::kInput;
        });
    ORION_CHECK(it != cn.program.end(), "program has no input instruction");
    return *it;
}

}  // namespace

// ---------------------------------------------------------------------
// SimExecutor
// ---------------------------------------------------------------------

SimExecutor::SimExecutor(const CompiledNetwork& cn, double bootstrap_noise_std,
                         u64 seed)
    : cn_(&cn), noise_std_(bootstrap_noise_std), noise_(seed)
{
}

ExecutionResult
SimExecutor::run(const std::vector<std::vector<double>>& inputs)
{
    SimBackend be{*cn_, inputs, noise_, noise_std_};
    ExecutionResult result;
    const std::vector<double> out = walk_program(*cn_, be, result);
    const std::size_t n = out.size() / inputs.size();
    for (auto lane = out.begin(); lane != out.end(); lane += n) {
        std::vector<double>& y = result.outputs.emplace_back(lane, lane + n);
        for (double& x : y) x /= cn_->output_nu;
    }
    result.modeled_latency = be.modeled;
    return result;
}

// ---------------------------------------------------------------------
// PreparedProgram
// ---------------------------------------------------------------------

PreparedProgram::PreparedProgram(const CompiledNetwork& cn,
                                 const ckks::Context& ctx)
    : cn_(&cn), ctx_(&ctx)
{
    ORION_CHECK(cn.slots == ctx.slot_count(),
                "program compiled for " << cn.slots
                                        << " slots, context has "
                                        << ctx.slot_count());
    ORION_CHECK(cn.l_eff < ctx.max_level(),
                "context needs more levels than l_eff");
    const ckks::Encoder encoder(ctx);

    // Symbolic scale propagation mirrors the CKKS backend's ops; every
    // linear layer encodes its diagonals at the repair scale
    // Delta * q_level / in_scale (Figure 7), so scales between layers are
    // exactly Delta.
    const double delta = ctx.scale();
    prepared_.resize(cn.program.size());
    bias_.resize(cn.program.size());
    in_scale_.assign(cn.program.size(), 0.0);
    act_target_.assign(cn.program.size(), 0.0);

    // ---- Phase A: symbolic scale resolution ----
    // Linear layers can repair to any target via their free weight scale
    // (Figure 7); everything else propagates deterministically. A linear
    // output stays "pending" until its consumer is known: an Add binds it
    // to its partner's scale (which may have drifted through a square),
    // any other consumer binds it to Delta.
    std::map<int, double> scale_of;
    std::set<int> pending;  // linear outputs with undecided targets
    auto finalize = [&](int v, double s) {
        scale_of[v] = s;
        pending.erase(v);
    };
    auto consume = [&](int v) -> double {
        if (pending.count(v)) finalize(v, delta);
        return scale_of.at(v);
    };
    for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
        const Instruction& ins = cn.program[idx];
        switch (ins.op) {
        case Instruction::Op::kInput:
            scale_of[ins.value] = delta;
            break;
        case Instruction::Op::kBootstrap:
            // The operand's exact symbolic scale feeds the circuit's
            // CoeffToSlot constant (the circuit, like the old oracle,
            // re-normalizes to the canonical scale).
            (void)consume(ins.a);
            scale_of[ins.value] = delta;
            break;
        case Instruction::Op::kLinear:
            (void)consume(ins.a);
            scale_of[ins.value] = delta;  // provisional
            pending.insert(ins.value);
            break;
        case Instruction::Op::kActivation: {
            const ActivationData& data =
                cn.activations[static_cast<std::size_t>(ins.payload)];
            const double in_scale = consume(ins.a);
            if (data.kind == nn::ActivationSpec::Kind::kSquare) {
                scale_of[ins.value] =
                    in_scale * in_scale /
                    static_cast<double>(ctx.q(ins.level).value());
            } else {
                scale_of[ins.value] = delta;  // retargeted by kMul below
            }
            break;
        }
        case Instruction::Op::kMul: {
            const double sa = consume(ins.a);
            (void)consume(ins.b);
            // Retarget the producing sign stage so this multiply rescales
            // exactly onto Delta.
            const double target =
                delta * static_cast<double>(ctx.q(ins.level).value()) / sa;
            scale_of[ins.b] = target;
            scale_of[ins.value] = delta;
            break;
        }
        case Instruction::Op::kScale:
            scale_of[ins.value] = consume(ins.a);
            break;
        case Instruction::Op::kAdd: {
            const bool pa = pending.count(ins.a) != 0;
            const bool pb = pending.count(ins.b) != 0;
            if (pa && pb) {
                finalize(ins.a, delta);
                finalize(ins.b, delta);
            } else if (pa) {
                finalize(ins.a, scale_of.at(ins.b));
            } else if (pb) {
                finalize(ins.b, scale_of.at(ins.a));
            }
            const double sa = scale_of.at(ins.a);
            const double sb = scale_of.at(ins.b);
            ORION_CHECK(ckks::scales_match(sa, sb),
                        "Add operands at mismatched scales: "
                            << sa << " vs " << sb);
            scale_of[ins.value] = sa;
            break;
        }
        case Instruction::Op::kOutput:
            (void)consume(ins.a);
            break;
        }
    }
    for (int v : std::set<int>(pending.begin(), pending.end())) {
        finalize(v, delta);
    }

    // ---- Phase B: encode matrices, biases, and activation targets ----
    for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
        const Instruction& ins = cn.program[idx];
        switch (ins.op) {
        case Instruction::Op::kLinear: {
            const LinearLayerData& data =
                cn.linears[static_cast<std::size_t>(ins.payload)];
            ORION_CHECK(data.matrix != nullptr,
                        "structural-only program cannot run on CKKS");
            const double in_scale = scale_of.at(ins.a);
            const double target = scale_of.at(ins.value);
            in_scale_[idx] = in_scale;
            const double w_scale =
                target *
                static_cast<double>(ctx.q(ins.level).value()) / in_scale;
            prepared_[idx] = std::make_shared<lin::HeBlockedMatrix>(
                ctx, encoder, *data.matrix, data.plan, ins.level, w_scale);
            if (!data.folded_bias.empty()) {
                const u64 padded =
                    std::max<u64>(1, ceil_div(data.rows, cn.slots)) *
                    cn.slots;
                // The bias is replicated into every batch lane; unused
                // lanes of an under-filled request carry bias-propagated
                // values that never leave their lane (the weight matrix
                // is block-diagonal) and are dropped at unpack.
                const std::vector<double> slots = data.out_layout.pack(
                    std::vector<std::vector<double>>(
                        static_cast<std::size_t>(data.out_layout.batch),
                        bias_tensor(data)),
                    padded);
                for (u64 c = 0; c * cn.slots < padded; ++c) {
                    const std::span<const double> chunk(
                        slots.data() + c * cn.slots, cn.slots);
                    bias_[idx].push_back(encoder.encode(
                        chunk, ins.level - 1, target));
                }
            }
            break;
        }
        case Instruction::Op::kActivation: {
            in_scale_[idx] = scale_of.at(ins.a);
            act_target_[idx] = scale_of.at(ins.value);
            break;
        }
        case Instruction::Op::kScale:
        case Instruction::Op::kBootstrap:
            in_scale_[idx] = scale_of.at(ins.a);
            break;
        default:
            break;
        }
    }

    // ---- Phase C: the public-key bootstrap circuit ----
    // One plan (a pure function of the parameters), one encoded circuit
    // per distinct symbolic input scale. A chain too short for the
    // circuit leaves boot_circuits_ empty: only a self-keyed executor
    // can then run the program, through the oracle test fixture.
    if (cn.num_bootstraps > 0) {
        boot_plan_ = ckks::BootstrapPlan::cached(ctx.params());
        if (ckks::BootstrapCircuit::supported(ctx, *boot_plan_, cn.l_eff)) {
            boot_circuit_of_.assign(cn.program.size(), -1);
            for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
                if (cn.program[idx].op != Instruction::Op::kBootstrap) {
                    continue;
                }
                const double s_in = in_scale_[idx];
                int found = -1;
                for (std::size_t c = 0; c < boot_circuits_.size(); ++c) {
                    if (ckks::scales_match(boot_circuits_[c]->input_scale(),
                                           s_in)) {
                        found = static_cast<int>(c);
                        break;
                    }
                }
                if (found < 0) {
                    boot_circuits_.push_back(
                        std::make_unique<const ckks::BootstrapCircuit>(
                            ctx, encoder, boot_plan_, cn.l_eff, s_in));
                    found = static_cast<int>(boot_circuits_.size()) - 1;
                }
                boot_circuit_of_[idx] = found;
            }
        }
    }
}

const ckks::BootstrapCircuit*
PreparedProgram::circuit_for(std::size_t idx) const
{
    ORION_ASSERT(idx < boot_circuit_of_.size() &&
                 boot_circuit_of_[idx] >= 0);
    return boot_circuits_[static_cast<std::size_t>(boot_circuit_of_[idx])]
        .get();
}

// ---------------------------------------------------------------------
// Input/output packing helpers (shared with the serving client)
// ---------------------------------------------------------------------

GaloisRequirements
required_galois(const CompiledNetwork& cn, const ckks::Context& ctx)
{
    GaloisRequirements out;
    for (const CompiledNetwork::RotationUse& use : cn.required_rotations()) {
        out.requests.push_back({use.step, use.level});
    }
    if (cn.num_bootstraps > 0) {
        const std::shared_ptr<const ckks::BootstrapPlan> plan =
            ckks::BootstrapPlan::cached(ctx.params());
        if (ckks::BootstrapCircuit::supported(ctx, *plan, cn.l_eff)) {
            const std::vector<ckks::GaloisKeyRequest> boot =
                plan->galois_requests(cn.l_eff);
            out.requests.insert(out.requests.end(), boot.begin(),
                                boot.end());
            out.conjugation = true;
            out.conjugation_level = plan->conjugation_level(cn.l_eff);
        }
    }
    return out;
}

std::vector<ckks::Ciphertext>
encrypt_network_input(const CompiledNetwork& cn, const ckks::Context& ctx,
                      const ckks::Encoder& encoder,
                      ckks::Encryptor& encryptor,
                      const std::vector<std::vector<double>>& inputs)
{
    const std::vector<std::vector<double>> normalized =
        normalize_inputs(cn, inputs);
    const Instruction& ins = input_instruction(cn);
    const u64 padded = ins.cts * cn.slots;
    const std::vector<double> packed =
        cn.input_layout.pack(normalized, padded);
    const double delta = ctx.scale();
    std::vector<ckks::Ciphertext> cts;
    cts.reserve(ins.cts);
    for (u64 c = 0; c < ins.cts; ++c) {
        const std::span<const double> chunk(packed.data() + c * cn.slots,
                                            cn.slots);
        cts.push_back(
            encryptor.encrypt(encoder.encode(chunk, ins.level, delta)));
    }
    return cts;
}

std::vector<std::vector<double>>
decrypt_network_output(const CompiledNetwork& cn,
                       const ckks::Encoder& encoder,
                       const ckks::Decryptor& decryptor,
                       const std::vector<ckks::Ciphertext>& outputs,
                       int batch_count)
{
    check_batch_count(cn, static_cast<std::size_t>(std::max(batch_count, 0)));
    std::vector<double> slots;
    slots.reserve(outputs.size() * cn.slots);
    for (const ckks::Ciphertext& ct : outputs) {
        const std::vector<double> part =
            encoder.decode(decryptor.decrypt(ct));
        slots.insert(slots.end(), part.begin(), part.end());
    }
    slots.resize(std::max<u64>(cn.output_layout.total_slots(), slots.size()),
                 0.0);
    std::vector<std::vector<double>> logical =
        cn.output_layout.unpack(slots, batch_count);
    for (std::vector<double>& sample : logical) {
        sample.resize(cn.output_size);
        for (double& x : sample) x /= cn.output_nu;
    }
    return logical;
}

// ---------------------------------------------------------------------
// CkksExecutor
// ---------------------------------------------------------------------

CkksExecutor::CkksExecutor(const CompiledNetwork& cn,
                           const ckks::Context& ctx, u64 seed,
                           std::optional<OrionConfig> cfg,
                           std::shared_ptr<const PreparedProgram> prepared)
    : cn_(&cn), ctx_(&ctx), cfg_(std::move(cfg)), encoder_(ctx),
      prep_(prepared ? std::move(prepared)
                     : std::make_shared<const PreparedProgram>(cn, ctx)),
      keygen_(std::in_place, ctx, seed),
      pk_(keygen_->make_public_key()),
      own_relin_(keygen_->make_relin_key()),
      encryptor_(std::in_place, ctx, *pk_),
      decryptor_(std::in_place, ctx, keygen_->secret_key()),
      eval_(ctx, encoder_)
{
    ORION_CHECK(prep_->cn_ == &cn && prep_->ctx_ == &ctx,
                "prepared program belongs to a different network or context");
    // Galois keys: exactly the union of rotation steps the compiled
    // program and (when present) the bootstrap circuit use, each key
    // pruned to the highest level it is used at.
    const GaloisRequirements req = required_galois(cn, ctx);
    own_galois_ = keygen_->make_galois_keys(
        std::span<const ckks::GaloisKeyRequest>(req.requests),
        req.conjugation, req.conjugation_level);
    // Chains too short for the real circuit keep the explicit oracle as
    // a single-party test fixture (see bootstrap.h).
    if (cn.num_bootstraps > 0 && !prep_->bootstrap_supported()) {
        oracle_boot_.emplace(
            ctx, encoder_, keygen_->secret_key(),
            ckks::OracleBootstrapConfig{ctx.max_level() - cn.l_eff, 1e-6,
                                        1.0});
    }
    bind_session_keys(&*own_relin_, &*own_galois_);
}

CkksExecutor::CkksExecutor(const CompiledNetwork& cn,
                           const ckks::Context& ctx,
                           std::shared_ptr<const PreparedProgram> prepared,
                           std::optional<OrionConfig> cfg)
    : cn_(&cn), ctx_(&ctx), cfg_(std::move(cfg)), encoder_(ctx),
      prep_(std::move(prepared)), eval_(ctx, encoder_)
{
    ORION_CHECK(prep_ != nullptr,
                "external-key executor requires a prepared program");
    ORION_CHECK(prep_->cn_ == &cn && prep_->ctx_ == &ctx,
                "prepared program belongs to a different network or context");
    if (cn.num_bootstraps > 0 && !prep_->bootstrap_supported()) {
        const auto boot_ins = std::find_if(
            cn.program.begin(), cn.program.end(), [](const Instruction& ins) {
                return ins.op == Instruction::Op::kBootstrap;
            });
        ORION_ASSERT(boot_ins != cn.program.end());
        const ckks::BootstrapPlan* plan = prep_->boot_plan_.get();
        ORION_CHECK(false,
                    "cannot serve "
                        << describe_instruction(*boot_ins)
                        << ": the public-key bootstrap circuit needs l_eff "
                        << cn.l_eff << " + l_boot "
                        << (plan ? plan->depth : 0) << " levels, but the "
                        << "context chain tops out at level "
                        << ctx.max_level());
    }
}

void
CkksExecutor::bind_session_keys(const ckks::KswitchKey* relin,
                                const ckks::GaloisKeys* galois)
{
    relin_ = relin;
    galois_ = galois;
    eval_.set_relin_key(relin_);
    eval_.set_galois_keys(galois_);
}

/**
 * Per-op CKKS arithmetic of the walk under the executor's bound keys. It
 * validates encrypted inputs against the kInput contract, drops operands
 * to each op's execution level, and picks the public-key circuit or (for
 * self-keyed executors on short chains) the oracle for each bootstrap.
 */
struct CkksExecutor::Backend {
    using Value = std::vector<ckks::Ciphertext>;

    CkksExecutor& ex;
    const Value& inputs;
    const PreparedProgram& prep = *ex.prep_;
    const ckks::Evaluator& eval = ex.eval_;
    const approx::HePolyEvaluator polyeval{ex.eval_};

    Value
    drop_all(const Value& in, int level) const
    {
        Value out;
        out.reserve(in.size());
        for (const ckks::Ciphertext& ct : in) {
            ORION_CHECK(ct.level() >= level, "value below required level");
            ckks::Ciphertext c = ct;
            if (c.level() > level) eval.drop_to_level_inplace(c, level);
            out.push_back(std::move(c));
        }
        return out;
    }

    Value
    input(const Instruction& ins)
    {
        const double delta = ex.ctx_->scale();
        ORION_CHECK(inputs.size() == ins.cts,
                    "encrypted input has " << inputs.size()
                                           << " ciphertexts, program "
                                           << "expects " << ins.cts);
        for (const ckks::Ciphertext& ct : inputs) {
            ORION_CHECK(ct.valid() && ct.level() >= ins.level,
                        "encrypted input below the program's input "
                        "level " << ins.level);
            ORION_CHECK(ct.c0.is_ntt() && ct.c1.is_ntt(),
                        "encrypted input must be in NTT form");
            ORION_CHECK(ckks::scales_match(ct.scale, delta),
                        "encrypted input scale " << ct.scale
                            << " does not match the context scale "
                            << delta);
        }
        return drop_all(inputs, ins.level);
    }

    Value
    bootstrap(std::size_t idx, const Instruction& ins, const Value& a)
    {
        // The real public-key circuit runs under whatever evaluation keys
        // are bound (a serving session's, or our own).
        const bool circuit = prep.bootstrap_supported();
        ORION_CHECK(circuit || ex.oracle_boot_.has_value(),
                    "cannot execute "
                        << describe_instruction(ins)
                        << ": the chain is too short for the public-key "
                        << "bootstrap circuit and only self-keyed "
                        << "executors may fall back to the oracle fixture");
        Value v;
        for (const ckks::Ciphertext& ct : a) {
            v.push_back(circuit ? prep.circuit_for(idx)->bootstrap(eval, ct)
                                : ex.oracle_boot_->bootstrap(ct));
        }
        return v;
    }

    Value
    linear(std::size_t idx, const Instruction& ins, const LinearLayerData&,
           const Value& a)
    {
        Value v = prep.prepared_[idx]->apply(eval, drop_all(a, ins.level));
        const std::vector<ckks::Plaintext>& bias = prep.bias_[idx];
        if (!bias.empty()) {
            for (std::size_t c = 0; c < v.size(); ++c) {
                eval.add_plain_inplace(v[c], bias[c]);
            }
        }
        return v;
    }

    Value
    activation(std::size_t idx, const Instruction& ins,
               const ActivationData& data, const Value& a)
    {
        Value v;
        for (const ckks::Ciphertext& ct : drop_all(a, ins.level)) {
            if (data.kind == nn::ActivationSpec::Kind::kSquare) {
                ckks::Ciphertext sq = eval.square(ct);
                eval.rescale_inplace(sq);
                v.push_back(std::move(sq));
            } else {
                v.push_back(polyeval.evaluate(data.stages[0], ct,
                                              prep.act_target_[idx]));
            }
        }
        return v;
    }

    Value
    mul(const Instruction& ins, const Value& a_in, const Value& b_in)
    {
        const double delta = ex.ctx_->scale();
        const Value a = drop_all(a_in, ins.level);
        const Value b = drop_all(b_in, ins.level);
        ORION_CHECK(a.size() == b.size(), "Mul ct count mismatch");
        Value v;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ckks::Ciphertext prod = eval.mul(a[i], b[i]);
            eval.rescale_inplace(prod);
            ORION_ASSERT(ckks::scales_match(prod.scale, delta));
            prod.scale = delta;
            v.push_back(std::move(prod));
        }
        return v;
    }

    Value
    scale(std::size_t idx, const Instruction& ins, const Value& a)
    {
        Value v = drop_all(a, ins.level);
        for (ckks::Ciphertext& c : v) {
            eval.mul_constant_inplace(
                c, ins.scale_factor,
                static_cast<double>(ex.ctx_->q(ins.level).value()));
            eval.rescale_inplace(c);
            c.scale = prep.in_scale_[idx];  // exact by construction
        }
        return v;
    }

    Value
    add(const Instruction& ins, const Value& a_in, const Value& b_in)
    {
        const Value a = drop_all(a_in, ins.level);
        const Value b = drop_all(b_in, ins.level);
        ORION_CHECK(a.size() == b.size(), "Add ct count mismatch");
        Value v;
        for (std::size_t i = 0; i < a.size(); ++i) {
            v.push_back(eval.add(a[i], b[i]));
        }
        return v;
    }
};

std::vector<ckks::Ciphertext>
CkksExecutor::encrypt_input(const std::vector<std::vector<double>>& inputs)
{
    ORION_CHECK(encryptor_.has_value(),
                "encrypt_input requires a self-keyed executor");
    return encrypt_network_input(*cn_, *ctx_, encoder_, *encryptor_, inputs);
}

std::vector<std::vector<double>>
CkksExecutor::decrypt_output(const std::vector<ckks::Ciphertext>& outputs,
                             int batch_count) const
{
    ORION_CHECK(decryptor_.has_value(),
                "decrypt_output requires a self-keyed executor");
    return decrypt_network_output(*cn_, encoder_, *decryptor_, outputs,
                                  batch_count);
}

ExecutionResult
CkksExecutor::run(const std::vector<std::vector<double>>& inputs)
{
    const auto t0 = std::chrono::steady_clock::now();
    ORION_CHECK(encryptor_.has_value() && decryptor_.has_value(),
                "run() requires a self-keyed executor; serving mode uses "
                "run_encrypted()");
    // A pinned config governs every kernel underneath this call via a
    // thread-local override (concurrent executors with different budgets
    // cannot interfere). Without one, kernels follow the ambient setting
    // (global pool or the caller's own override).
    std::optional<ScopedPoolOverride> scoped_threads;
    if (cfg_) scoped_threads.emplace(cfg_->resolved_num_threads());

    const std::vector<ckks::Ciphertext> in_cts = encrypt_input(inputs);
    Backend be{*this, in_cts};
    ExecutionResult result;
    result.outputs = decrypt_output(walk_program(*cn_, be, result),
                                    static_cast<int>(inputs.size()));
    result.modeled_latency = cn_->modeled_latency;
    result.wall_seconds = seconds_since(t0);
    return result;
}

EncryptedResult
CkksExecutor::run_encrypted(const std::vector<ckks::Ciphertext>& input)
{
    ORION_CHECK(relin_ != nullptr || galois_ != nullptr,
                "run_encrypted requires bound evaluation keys "
                "(bind_session_keys)");
    std::optional<ScopedPoolOverride> scoped_threads;
    if (cfg_) scoped_threads.emplace(cfg_->resolved_num_threads());
    Backend be{*this, input};
    EncryptedResult result;
    result.outputs = walk_program(*cn_, be, result);
    result.modeled_latency = cn_->modeled_latency;
    return result;
}

}  // namespace orion::core
