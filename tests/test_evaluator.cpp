#include <gtest/gtest.h>

#include <cstring>

#include "tests/test_util.h"

namespace orion::test {
namespace {

using ckks::Ciphertext;
using ckks::Plaintext;

TEST(Encrypt, PublicKeyRoundTrip)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> m = random_vector(env.ctx.slot_count(), 1.0, 1);
    const Ciphertext ct = encrypt_vector(env, m, env.ctx.max_level());
    const std::vector<double> back = decrypt_vector(env, ct);
    EXPECT_LT(max_abs_diff(m, back), 1e-4);
}

TEST(Encrypt, SymmetricRoundTrip)
{
    CkksEnv& env = CkksEnv::shared();
    ckks::Encryptor sym(env.ctx, env.keygen.secret_key());
    const std::vector<double> m = random_vector(env.ctx.slot_count(), 1.0, 2);
    const Plaintext pt = env.encoder.encode(m, 3, env.ctx.scale());
    const Ciphertext ct = sym.encrypt(pt);
    const std::vector<double> back = decrypt_vector(env, ct);
    EXPECT_LT(max_abs_diff(m, back), 1e-5);
}

TEST(Encrypt, LowerLevelEncryption)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> m = random_vector(env.ctx.slot_count(), 1.0, 3);
    for (int level : {0, 1, 2}) {
        const Ciphertext ct = encrypt_vector(env, m, level);
        EXPECT_EQ(ct.level(), level);
        EXPECT_LT(max_abs_diff(m, decrypt_vector(env, ct)), 1e-4);
    }
}

TEST(Evaluator, AddAndSub)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 4);
    const std::vector<double> b = random_vector(n, 1.0, 5);
    Ciphertext ca = encrypt_vector(env, a, 3);
    const Ciphertext cb = encrypt_vector(env, b, 3);
    env.eval.add_inplace(ca, cb);
    std::vector<double> sum = decrypt_vector(env, ca);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(sum[i], a[i] + b[i], 1e-4);
    env.eval.sub_inplace(ca, cb);
    std::vector<double> diff = decrypt_vector(env, ca);
    EXPECT_LT(max_abs_diff(diff, a), 1e-4);
}

TEST(Evaluator, AddPlainAndConstant)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 6);
    const std::vector<double> b = random_vector(n, 1.0, 7);
    Ciphertext ca = encrypt_vector(env, a, 2);
    const Plaintext pb = env.encoder.encode(b, 2, ca.scale);
    env.eval.add_plain_inplace(ca, pb);
    env.eval.add_constant_inplace(ca, 0.25);
    const std::vector<double> out = decrypt_vector(env, ca);
    for (u64 i = 0; i < n; ++i) {
        EXPECT_NEAR(out[i], a[i] + b[i] + 0.25, 1e-4);
    }
}

TEST(Evaluator, MulPlainWithRescale)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 8);
    const std::vector<double> w = random_vector(n, 1.0, 9);
    Ciphertext ca = encrypt_vector(env, a, 3);
    const Plaintext pw = env.encoder.encode(w, 3, env.ctx.scale());
    env.eval.mul_plain_inplace(ca, pw);
    env.eval.rescale_inplace(ca);
    EXPECT_EQ(ca.level(), 2);
    const std::vector<double> out = decrypt_vector(env, ca);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * w[i], 1e-4);
}

TEST(Evaluator, ErrorlessScaleTrick)
{
    // Encoding the weight at scale q_l makes the post-rescale scale exactly
    // Delta again (the paper's Figure 7 invariant).
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 10);
    const std::vector<double> w = random_vector(n, 1.0, 11);
    Ciphertext ca = encrypt_vector(env, a, 3);
    const double qj = static_cast<double>(env.ctx.q(3).value());
    const Plaintext pw = env.encoder.encode(w, 3, qj);
    env.eval.mul_plain_inplace(ca, pw);
    env.eval.rescale_inplace(ca);
    EXPECT_DOUBLE_EQ(ca.scale, env.ctx.scale());  // exact, not approximate
    const std::vector<double> out = decrypt_vector(env, ca);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * w[i], 1e-4);
}

TEST(Evaluator, CiphertextMultiply)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 12);
    const std::vector<double> b = random_vector(n, 1.0, 13);
    const Ciphertext ca = encrypt_vector(env, a, 3);
    const Ciphertext cb = encrypt_vector(env, b, 3);
    Ciphertext cc = env.eval.mul(ca, cb);
    env.eval.rescale_inplace(cc);
    const std::vector<double> out = decrypt_vector(env, cc);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * b[i], 1e-3);
}

TEST(Evaluator, SquareChain)
{
    // Consume several levels: ((a^2)^2) with rescaling after each square.
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 0.9, 14);
    Ciphertext ct = encrypt_vector(env, a, 4);
    ct = env.eval.square(ct);
    env.eval.rescale_inplace(ct);
    ct = env.eval.square(ct);
    env.eval.rescale_inplace(ct);
    EXPECT_EQ(ct.level(), 2);
    const std::vector<double> out = decrypt_vector(env, ct);
    for (u64 i = 0; i < n; ++i) {
        EXPECT_NEAR(out[i], std::pow(a[i], 4.0), 5e-3);
    }
}

TEST(Evaluator, RotationMatchesCleartext)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 15);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    for (int step : {1, 5, 16, -3}) {
        const Ciphertext rot = env.eval.rotate(ct, step);
        const std::vector<double> out = decrypt_vector(env, rot);
        for (u64 i = 0; i < n; ++i) {
            const u64 src =
                (i + static_cast<u64>(((step % static_cast<i64>(n)) +
                                       static_cast<i64>(n))) ) % n;
            ASSERT_NEAR(out[i], a[src], 1e-4) << "step " << step;
        }
    }
}

TEST(Evaluator, RotationByZeroIsIdentity)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 16);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    const Ciphertext rot = env.eval.rotate(ct, 0);
    EXPECT_EQ(max_abs_diff(decrypt_vector(env, rot),
                           decrypt_vector(env, ct)),
              0.0);
}

TEST(Evaluator, HoistedRotationMatchesPlainRotation)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 17);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
    for (int step : {1, 4, 8, -1}) {
        const Ciphertext hr = env.eval.rotate_hoisted(h, step);
        const Ciphertext pr = env.eval.rotate(ct, step);
        EXPECT_LT(max_abs_diff(decrypt_vector(env, hr),
                               decrypt_vector(env, pr)),
                  1e-4)
            << "step " << step;
    }
}

TEST(Evaluator, RotationAccumulatorMatchesSumOfRotations)
{
    // The double-hoisting accumulator must equal sum_i Rot_{k_i}(ct_i).
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<int> steps = {0, 1, 5, 16, -3};
    std::vector<std::vector<double>> msgs;
    std::vector<Ciphertext> cts;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        msgs.push_back(random_vector(n, 1.0, 100 + i));
        cts.push_back(encrypt_vector(env, msgs.back(), 2));
    }

    auto acc = env.eval.make_accumulator(2, env.ctx.scale());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        env.eval.accumulate_rotation(acc, cts[i], steps[i]);
    }
    const Ciphertext combined = env.eval.finalize_accumulator(acc);

    Ciphertext expected = env.eval.rotate(cts[0], steps[0]);
    for (std::size_t i = 1; i < steps.size(); ++i) {
        env.eval.add_inplace(expected, env.eval.rotate(cts[i], steps[i]));
    }
    EXPECT_LT(max_abs_diff(decrypt_vector(env, combined),
                           decrypt_vector(env, expected)),
              1e-4);
}

TEST(Evaluator, Conjugate)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    std::vector<std::complex<double>> m(n);
    for (u64 i = 0; i < n; ++i) {
        m[i] = {0.3 * std::cos(static_cast<double>(i)),
                0.2 * std::sin(static_cast<double>(i))};
    }
    const Plaintext pt = env.encoder.encode_complex(m, 2, env.ctx.scale());
    ckks::Encryptor sym(env.ctx, env.keygen.secret_key());
    const Ciphertext ct = sym.encrypt(pt);
    const Ciphertext conj = env.eval.conjugate(ct);
    const std::vector<std::complex<double>> out =
        env.encoder.decode_complex(env.decryptor.decrypt(conj));
    double err = 0;
    for (u64 i = 0; i < n; ++i) {
        err = std::max(err, std::abs(out[i] - std::conj(m[i])));
    }
    EXPECT_LT(err, 1e-4);
}

TEST(Evaluator, DropToLevelPreservesMessage)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 18);
    Ciphertext ct = encrypt_vector(env, a, 5);
    env.eval.drop_to_level_inplace(ct, 1);
    EXPECT_EQ(ct.level(), 1);
    EXPECT_DOUBLE_EQ(ct.scale, env.ctx.scale());
    EXPECT_LT(max_abs_diff(decrypt_vector(env, ct), a), 1e-4);
}

TEST(Evaluator, MulAtLowLevelAfterDrop)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 19);
    Ciphertext ct = encrypt_vector(env, a, 5);
    env.eval.drop_to_level_inplace(ct, 2);
    Ciphertext sq = env.eval.square(ct);
    env.eval.rescale_inplace(sq);
    const std::vector<double> out = decrypt_vector(env, sq);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * a[i], 1e-3);
}

TEST(Evaluator, MismatchedLevelsRejected)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 20);
    const Ciphertext c3 = encrypt_vector(env, a, 3);
    const Ciphertext c2 = encrypt_vector(env, a, 2);
    Ciphertext c3m = c3;
    EXPECT_THROW(env.eval.add_inplace(c3m, c2), Error);
}

TEST(Evaluator, MismatchedScalesRejected)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 21);
    Ciphertext c1 = encrypt_vector(env, a, 3);
    Ciphertext c2 = encrypt_vector(env, a, 3);
    c2.scale *= 2.0;
    EXPECT_THROW(env.eval.add_inplace(c1, c2), Error);
}

TEST(Evaluator, MissingGaloisKeyRejected)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 22);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    EXPECT_THROW(env.eval.rotate(ct, 123), Error);  // no key for step 123
}

TEST(Evaluator, HoistedRotationMatchesPlainRotationAllSharedSteps)
{
    // Full sweep: one hoisted decomposition must serve every step the
    // shared environment owns keys for, matching the un-hoisted rotation
    // both in the decrypted slots and in scale/level metadata.
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 24);
    const Ciphertext ct = encrypt_vector(env, a, 3);
    const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
    for (int step : kSharedSteps) {
        const Ciphertext hr = env.eval.rotate_hoisted(h, step);
        const Ciphertext pr = env.eval.rotate(ct, step);
        EXPECT_EQ(hr.level(), pr.level()) << "step " << step;
        EXPECT_EQ(hr.scale, pr.scale) << "step " << step;
        EXPECT_LT(max_abs_diff(decrypt_vector(env, hr),
                               decrypt_vector(env, pr)),
                  1e-4)
            << "step " << step;
        // And both match the cleartext rotation.
        std::vector<double> want(n);
        for (u64 i = 0; i < n; ++i) {
            const u64 src =
                (i + static_cast<u64>(((step % static_cast<i64>(n)) +
                                       static_cast<i64>(n))) ) % n;
            want[i] = a[src];
        }
        EXPECT_LT(max_abs_diff(decrypt_vector(env, hr), want), 1e-4)
            << "step " << step;
    }
}

TEST(Evaluator, HoistedRotationByZeroIsIdentity)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 25);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
    const Ciphertext r = env.eval.rotate_hoisted(h, 0);
    EXPECT_LT(max_abs_diff(decrypt_vector(env, r), a), 1e-4);
    // Full-slot rotations are also trivial.
    const Ciphertext full = env.eval.rotate_hoisted(
        h, static_cast<int>(env.ctx.slot_count()));
    EXPECT_LT(max_abs_diff(decrypt_vector(env, full), a), 1e-4);
}

TEST(Evaluator, MissingGaloisKeyRejectedForHoistedRotation)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 26);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
    EXPECT_THROW((void)env.eval.rotate_hoisted(h, 123), Error);
    EXPECT_THROW((void)env.eval.galois_key_for_step(123), Error);
    // A trivial step never needs a key, even when none would exist.
    EXPECT_NO_THROW((void)env.eval.rotate_hoisted(h, 0));
}

TEST(Evaluator, RotationsRejectedWhenNoGaloisKeysSet)
{
    // A fresh evaluator with no key registry must fail loudly on every
    // rotation entry point, not crash on a null lookup.
    CkksEnv& env = CkksEnv::shared();
    ckks::Evaluator bare(env.ctx, env.encoder);
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 27);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    EXPECT_THROW((void)bare.rotate(ct, 1), Error);
    EXPECT_THROW((void)bare.conjugate(ct), Error);
    const ckks::Evaluator::Hoisted h = bare.hoist(ct);
    EXPECT_THROW((void)bare.rotate_hoisted(h, 1), Error);
    auto acc = bare.make_accumulator(2, env.ctx.scale());
    EXPECT_THROW(bare.accumulate_rotation(acc, ct, 1), Error);
    // Step 0 accumulates without keys (it is a plain addition).
    EXPECT_NO_THROW(bare.accumulate_rotation(acc, ct, 0));
}

TEST(Evaluator, MissingGaloisKeyRejectedInAccumulator)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 28);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    auto acc = env.eval.make_accumulator(2, env.ctx.scale());
    EXPECT_THROW(env.eval.accumulate_rotation(acc, ct, 123), Error);
}

TEST(Evaluator, OpCountersTrackRotationsAndMults)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 23);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    env.ctx.counters().reset();
    (void)env.eval.rotate(ct, 1);
    const auto h = env.eval.hoist(ct);
    (void)env.eval.rotate_hoisted(h, 2);
    (void)env.eval.mul(ct, ct);
    const auto& c = env.ctx.counters();
    EXPECT_EQ(c.hrot, 1u);
    EXPECT_EQ(c.hrot_hoisted, 1u);
    EXPECT_EQ(c.hmult, 1u);
    EXPECT_EQ(c.total_rotations(), 2u);
    EXPECT_EQ(c.keyswitch, 3u);
}

// ---- one-pass ModDown ------------------------------------------------

/**
 * Builds a = P * m + e in R_{Q_l * P} (m uniform mod Q_l, e a signed
 * integer with |e| < 2^62 drawn with both signs and the extremes) and
 * checks mod_down_special(a) == m limb for limb. It must be exact: the
 * centered representative of a mod P is e itself, and e / P sits nowhere
 * near a rounding tie. A negative e only lands right when the base
 * conversion is centered.
 */
void
expect_mod_down_exact(const ckks::Context& ctx, int level, bool ntt, u64 seed)
{
    const u64 n = ctx.degree();
    std::mt19937_64 rng(seed);
    const i64 e_max = (i64(1) << 62) - 1;
    std::uniform_int_distribution<i64> e_dist(-e_max, e_max);
    std::vector<i64> e(n);
    for (u64 x = 0; x < n; ++x) {
        switch (x % 6) {
            case 0: e[x] = e_max; break;
            case 1: e[x] = -e_max; break;
            case 2: e[x] = (x % 12 == 2) ? 1 : -1; break;
            default: e[x] = e_dist(rng); break;
        }
    }
    ckks::RnsPoly m(ctx, level, /*extended=*/false, /*ntt_form=*/false);
    ckks::RnsPoly a(ctx, level, /*extended=*/true, /*ntt_form=*/false);
    for (int t = 0; t < a.num_limbs(); ++t) {
        const ckks::Modulus& q = a.limb_modulus(t);
        const bool special = t > level;  // P * m vanishes mod p_i
        std::uniform_int_distribution<u64> m_dist(0, q.value() - 1);
        for (u64 x = 0; x < n; ++x) {
            u64 r = ckks::reduce_signed(e[x], q);
            if (!special) {
                const u64 mj = m_dist(rng);
                m.limb(t)[x] = mj;
                r = ckks::add_mod(
                    r, ckks::mul_mod(mj, ctx.p_prod_mod_q(t), q), q);
            }
            a.limb(t)[x] = r;
        }
    }
    if (ntt) a.to_ntt();
    a.mod_down_special();
    ASSERT_FALSE(a.extended());
    ASSERT_EQ(a.level(), level);
    ASSERT_EQ(a.is_ntt(), ntt);
    if (ntt) a.to_coeff();
    for (int j = 0; j <= level; ++j) {
        ASSERT_EQ(0, std::memcmp(a.limb(j), m.limb(j), n * sizeof(u64)))
            << "k = " << ctx.special_count() << ", level " << level
            << ", limb " << j << (ntt ? ", NTT form" : ", coefficient form");
    }
}

TEST(ModDown, ExactOnScaledInputs)
{
    // k = 3 special primes of 60 bits, and k = 4 of 46 bits.
    for (const ckks::CkksParams& params :
         {ckks::CkksParams::bootstrap_toy(16),
          ckks::CkksParams::network(u64(1) << 13, 8)}) {
        const ckks::Context ctx(params);
        const int top = ctx.max_level();
        for (int level : {0, top / 2, top}) {
            for (bool ntt : {false, true}) {
                expect_mod_down_exact(ctx, level, ntt,
                                      static_cast<u64>(2 * level + ntt));
            }
        }
    }
}

TEST(ModDown, ChainedRotationsStayAtFreshNoise)
{
    // Every rotation ends in a ModDown. An uncentered base conversion
    // (no v correction) adds a one-signed error per coefficient that
    // compounds over a chain: 20 rotations took it to 6.2x a fresh
    // encryption's slot error. Centered, the chain stays near 1x.
    const ckks::Context ctx(ckks::CkksParams::network(u64(1) << 13, 8));
    const ckks::Encoder encoder(ctx);
    ckks::KeyGenerator keygen(ctx, /*seed=*/7);
    const ckks::PublicKey pk = keygen.make_public_key();
    const std::vector<int> steps = {1};
    const ckks::GaloisKeys galois = keygen.make_galois_keys(steps);
    ckks::Encryptor encryptor(ctx, pk);
    const ckks::Decryptor decryptor(ctx, keygen.secret_key());
    ckks::Evaluator eval(ctx, encoder);
    eval.set_galois_keys(&galois);

    const int level = 6;
    const int chain = 20;
    const u64 slots = ctx.slot_count();
    const std::vector<double> m = random_vector(slots, 1.0, 41);
    const Ciphertext fresh =
        encryptor.encrypt(encoder.encode(m, level, ctx.scale()));
    const double fresh_err =
        max_abs_diff(m, encoder.decode(decryptor.decrypt(fresh)));

    Ciphertext ct = fresh;
    for (int i = 0; i < chain; ++i) ct = eval.rotate(ct, 1);
    std::vector<double> expected(slots);
    for (u64 i = 0; i < slots; ++i) expected[i] = m[(i + chain) % slots];
    const double chained_err =
        max_abs_diff(expected, encoder.decode(decryptor.decrypt(ct)));
    EXPECT_LT(chained_err, 2.0 * fresh_err)
        << "fresh " << fresh_err << ", after " << chain << " rotations "
        << chained_err;
}

}  // namespace
}  // namespace orion::test
