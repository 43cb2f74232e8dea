#ifndef ORION_SRC_CORE_EXECUTOR_H_
#define ORION_SRC_CORE_EXECUTOR_H_

/**
 * @file
 * Execution backends for compiled networks.
 *
 * Both backends run a program through one instruction walk; they differ
 * only in the arithmetic of each op. SimExecutor computes in cleartext
 * (polynomial activation approximations, injected bootstrap noise) while
 * charging the analytic cost model - this is how ImageNet-scale rows of
 * Table 2 are produced. CkksExecutor runs the same instruction stream
 * under real RNS-CKKS encryption end to end.
 *
 * Every verb takes a batch: a single sample is a batch of one ({x}), and
 * up to CompiledNetwork::batch samples share one program execution.
 *
 * CkksExecutor has two key modes:
 *  - self-keyed: the executor generates its own secret, can encrypt inputs
 *    and decrypt outputs, and supports bootstrap instructions (the oracle
 *    bootstrapper holds the secret). This is the single-party mode used by
 *    tests, benches, and the paper's tables.
 *  - external-key (serving): the executor holds only a client's evaluation
 *    keys (relinearization + Galois). It can run run_encrypted() -
 *    ciphertexts in, ciphertexts out - but never sees a secret key. The
 *    expensive key-independent preparation (encoded diagonals, bias
 *    plaintexts, resolved scales) lives in a shared PreparedProgram so a
 *    pool of serving executors amortizes it across sessions.
 */

#include <memory>
#include <optional>

#include "src/ckks/ckks.h"
#include "src/core/compiler.h"
#include "src/core/config.h"

namespace orion::core {

/**
 * Wall-clock attribution of one network layer: consecutive program
 * instructions with the same Instruction::layer_id merge into one entry
 * (execution order is preserved), so the vector reads as the paper's
 * Table-4-style per-layer breakdown. layer_id -1 is compiler glue
 * (scales, residual adds) outside any frontend layer.
 */
struct LayerTiming {
    int layer_id = -1;
    double seconds = 0.0;
};

/**
 * Outcome of one program execution, whichever backend ran it:
 * ExecutionResult carries the logical outputs (de-normalized, one per
 * input sample), EncryptedResult the still-encrypted output ciphertexts
 * of the serving path.
 */
template <class Output>
struct ExecutionReport {
    std::vector<Output> outputs;
    double modeled_latency = 0.0;  ///< cost-model seconds
    double wall_seconds = 0.0;     ///< measured wall-clock seconds
    u64 bootstraps = 0;
    u64 rotations = 0;
    u64 pmults = 0;
    std::vector<LayerTiming> layer_times;
};
using ExecutionResult = ExecutionReport<std::vector<double>>;
using EncryptedResult = ExecutionReport<ckks::Ciphertext>;

/** Functional simulation backend. */
class SimExecutor {
  public:
    explicit SimExecutor(const CompiledNetwork& cn,
                         double bootstrap_noise_std = 1e-6, u64 seed = 5);

    /** Simulates up to CompiledNetwork::batch samples, each in its lane. */
    ExecutionResult run(const std::vector<std::vector<double>>& inputs);

  private:
    const CompiledNetwork* cn_;
    double noise_std_;
    ckks::Sampler noise_;
};

/**
 * Key-independent prepared payloads of a compiled program: every linear
 * layer's matrix diagonals encoded at their assigned levels and repair
 * scales (Figure 7), bias plaintexts, the symbolic scale resolution, and
 * — when the program bootstraps and the context has the levels for it —
 * the public-key bootstrap circuit (ckks::BootstrapCircuit), one encoded
 * variant per distinct symbolic input scale. Immutable after
 * construction and safe to share (read-only) across any number of
 * concurrently running executors; the program must have been compiled
 * with matrices (structural_only = false).
 */
class PreparedProgram {
  public:
    PreparedProgram(const CompiledNetwork& cn, const ckks::Context& ctx);

    const CompiledNetwork& network() const { return *cn_; }
    const ckks::Context& context() const { return *ctx_; }

    /**
     * True when every bootstrap instruction can run as the real circuit
     * (the context has l_eff + l_boot levels). False either because the
     * program is bootstrap-free or because the chain is too short — in
     * the latter case only a self-keyed executor can run the program,
     * via the oracle test fixture.
     */
    bool bootstrap_supported() const { return !boot_circuits_.empty(); }

  private:
    friend class CkksExecutor;

    /** The prepared circuit for program instruction idx (never null for
     *  bootstrap instructions when bootstrap_supported()). */
    const ckks::BootstrapCircuit* circuit_for(std::size_t idx) const;

    const CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    // Prepared payloads, indexed like cn_->program.
    std::vector<std::shared_ptr<lin::HeBlockedMatrix>> prepared_;
    std::vector<std::vector<ckks::Plaintext>> bias_;
    std::vector<double> in_scale_;    ///< per-instruction input scale
    std::vector<double> act_target_;  ///< per-activation target scale
    // Bootstrap support (empty / null for bootstrap-free programs). The
    // plan is the process-wide memoized one (BootstrapPlan::cached);
    // circuit variants share it rather than copying its stage matrices.
    std::shared_ptr<const ckks::BootstrapPlan> boot_plan_;
    std::vector<std::unique_ptr<const ckks::BootstrapCircuit>>
        boot_circuits_;               ///< one per distinct input scale
    std::vector<int> boot_circuit_of_;  ///< per-instruction index, or -1
};

/**
 * The Galois-key requirements of serving a compiled program on a given
 * context: the program's level-pruned rotation steps plus, for
 * bootstrap-bearing programs the context can support, the bootstrap
 * circuit's steps and conjugation. A pure function of (cn, ctx.params),
 * so a client and a server derive identical sets independently — and
 * keygen generates *only* this union, nothing speculative.
 */
struct GaloisRequirements {
    std::vector<ckks::GaloisKeyRequest> requests;
    bool conjugation = false;
    int conjugation_level = -1;
};
GaloisRequirements required_galois(const CompiledNetwork& cn,
                                   const ckks::Context& ctx);

/**
 * Packs up to CompiledNetwork::batch samples into their slot lanes and
 * encrypts them as the program's kInput instruction expects
 * (normalization, layout packing, level, scale). The program executes
 * once for the whole batch. Shared by CkksExecutor and the serving client.
 */
std::vector<ckks::Ciphertext> encrypt_network_input(
    const CompiledNetwork& cn, const ckks::Context& ctx,
    const ckks::Encoder& encoder, ckks::Encryptor& encryptor,
    const std::vector<std::vector<double>>& inputs);

/**
 * Decrypts, unpacks, and de-normalizes program outputs exactly as the
 * kOutput instruction does: the first batch_count lanes, one per sample.
 */
std::vector<std::vector<double>> decrypt_network_output(
    const CompiledNetwork& cn, const ckks::Encoder& encoder,
    const ckks::Decryptor& decryptor,
    const std::vector<ckks::Ciphertext>& outputs, int batch_count);

/**
 * Real-FHE backend over the from-scratch CKKS substrate.
 *
 * Honors OrionConfig::num_threads: when constructed with a `cfg`, run()
 * and run_encrypted() install a thread-local pool override for their
 * duration, so the knob controls every parallel kernel underneath without
 * touching global state (concurrent executors with different budgets are
 * safe). Without one, the executor follows the ambient setting at call
 * time (core::set_num_threads or a caller's ScopedPoolOverride). Any
 * thread count is bit-identical to num_threads = 1.
 */
class CkksExecutor {
  public:
    /**
     * Self-keyed mode: generates keys for every required rotation step and
     * prepares the program (or reuses `prepared` when given). Requires the
     * program to have been compiled with matrices (structural_only =
     * false) and with l_eff < the context's max level.
     */
    CkksExecutor(const CompiledNetwork& cn, const ckks::Context& ctx,
                 u64 seed = 7,
                 std::optional<OrionConfig> cfg = std::nullopt,
                 std::shared_ptr<const PreparedProgram> prepared = nullptr);

    /**
     * External-key (serving) mode: no key material of its own; callers
     * bind a session's evaluation keys before each run_encrypted().
     * Bootstrap instructions run as the real public-key circuit under
     * the bound Galois/relinearization keys; the context must therefore
     * have l_eff + l_boot levels (construction fails otherwise, naming
     * the offending instruction).
     */
    CkksExecutor(const CompiledNetwork& cn, const ckks::Context& ctx,
                 std::shared_ptr<const PreparedProgram> prepared,
                 std::optional<OrionConfig> cfg = std::nullopt);

    /**
     * Binds per-session evaluation keys (external-key mode, or to override
     * the self-generated keys). The pointed-to keys must outlive every
     * subsequent run_encrypted() call.
     */
    void bind_session_keys(const ckks::KswitchKey* relin,
                           const ckks::GaloisKeys* galois);

    /**
     * Full inference of up to CompiledNetwork::batch samples: encrypt,
     * execute once, decrypt. Self-keyed mode only. Safe to call
     * repeatedly on one instance: all per-run state (values, levels,
     * stats) is local to the call.
     */
    ExecutionResult run(const std::vector<std::vector<double>>& inputs);

    /**
     * Encrypted-domain inference: validates the input ciphertexts against
     * the program's kInput contract (count, level, scale), executes, and
     * returns the still-encrypted outputs. Works in both modes; the
     * serving path never touches a secret key. Reported rotation /
     * bootstrap / pmult counts are the program's deterministic operation
     * counts, kept by the walk both backends share (race-free when many
     * executors share one Context): rotations equal the measured kernel counts
     * (asserted against Context counters by the compiler integration
     * test); pmults cover linear layers and explicit scales but not the
     * plaintext products inside polynomial activation evaluation.
     */
    EncryptedResult run_encrypted(const std::vector<ckks::Ciphertext>& input);

    /** Encrypts up to CompiledNetwork::batch samples (self-keyed mode). */
    std::vector<ckks::Ciphertext> encrypt_input(
        const std::vector<std::vector<double>>& inputs);
    /** Decrypts the first batch_count lanes (self-keyed mode). */
    std::vector<std::vector<double>> decrypt_output(
        const std::vector<ckks::Ciphertext>& outputs, int batch_count) const;

    std::size_t galois_key_bytes() const
    {
        return galois_ ? galois_->byte_size() : 0;
    }

  private:
    /** The per-op CKKS arithmetic of the instruction walk. */
    struct Backend;

    const CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    std::optional<OrionConfig> cfg_;
    ckks::Encoder encoder_;
    std::shared_ptr<const PreparedProgram> prep_;
    // Self-key material; absent in external-key (serving) mode.
    std::optional<ckks::KeyGenerator> keygen_;
    std::optional<ckks::PublicKey> pk_;
    std::optional<ckks::KswitchKey> own_relin_;
    std::optional<ckks::GaloisKeys> own_galois_;
    std::optional<ckks::Encryptor> encryptor_;
    std::optional<ckks::Decryptor> decryptor_;
    // Oracle fallback: only for self-keyed executors on chains too short
    // for the real circuit (toy test parameters); see bootstrap.h.
    std::optional<ckks::OracleBootstrapper> oracle_boot_;
    // Bound evaluation keys (own keys, or a session's external keys).
    const ckks::KswitchKey* relin_ = nullptr;
    const ckks::GaloisKeys* galois_ = nullptr;
    ckks::Evaluator eval_;
};

}  // namespace orion::core

#endif  // ORION_SRC_CORE_EXECUTOR_H_
