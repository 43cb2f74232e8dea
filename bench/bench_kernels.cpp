/**
 * @file
 * RNS kernel microbenchmark: the three limb-level hot paths that dominate
 * end-to-end latency (PAPER.md Section 3) — NTT forward/inverse butterflies,
 * the key-switch stages (decompose, inner product, mod-down), and BSGS
 * rotation accumulation. This is the
 * binary behind the repo's kernel perf trajectory: run with
 * `--json BENCH_kernels.json` before and after a kernel change and compare
 * the per-op metrics.
 */

#include "bench/bench_util.h"

#include "src/ckks/kernels.h"

using namespace orion;

namespace {

namespace k = ckks::kernels;

/**
 * Per-ISA size sweep over the raw kernels: NTT forward/inverse on a
 * single limb and the key-switch inner product, each at ring sizes up to
 * N = 2^16 and (for the inner product) several digit counts. One row and
 * one JSON metric per (kernel, ISA, size) cell — this is what
 * check_regression.py diffs across commits, with the scalar rows pinning
 * the no-vectorization-regression bar and the vector rows the speedup.
 */
void
sweep_isas()
{
    std::vector<k::Isa> isas;
    for (k::Isa isa : {k::Isa::kScalar, k::Isa::kAvx2, k::Isa::kAvx512}) {
        if (k::isa_supported(isa)) isas.push_back(isa);
    }
    const std::vector<u64> sizes = bench::smoke()
                                       ? std::vector<u64>{u64(1) << 10}
                                       : std::vector<u64>{u64(1) << 12,
                                                          u64(1) << 14,
                                                          u64(1) << 16};
    const std::vector<u64> digit_counts =
        bench::smoke() ? std::vector<u64>{2} : std::vector<u64>{2, 4, 8};

    std::printf("\nper-ISA kernel sweep (single limb, 61-bit prime)\n");
    std::printf("%-8s %8s %14s %14s\n", "isa", "n", "ntt fwd ms",
                "ntt inv ms");
    for (u64 n : sizes) {
        const ckks::Modulus q(ckks::generate_ntt_primes(61, 1, n)[0]);
        const ckks::NttTables tables(n, q);
        const k::NttView view = tables.view();
        std::mt19937_64 rng(13 + n);
        std::uniform_int_distribution<u64> dist(0, q.value() - 1);
        std::vector<u64> poly(n);
        for (u64& x : poly) x = dist(rng);

        // Iteration count scaled so each cell times ~2^21 butterflies.
        const int iters =
            bench::smoke() ? 2 : static_cast<int>((u64(1) << 21) / n);
        for (k::Isa isa : isas) {
            const k::KernelTable& t = k::table(isa);
            const double t_fwd = bench::time_median(bench::reps(5), [&] {
                for (int i = 0; i < iters; ++i) {
                    t.ntt_forward(view, poly.data());
                }
            }) / iters;
            const double t_inv = bench::time_median(bench::reps(5), [&] {
                for (int i = 0; i < iters; ++i) {
                    t.ntt_inverse(view, poly.data());
                }
            }) / iters;
            std::printf("%-8s %8llu %14.4f %14.4f\n", k::isa_name(isa),
                        static_cast<unsigned long long>(n), t_fwd * 1e3,
                        t_inv * 1e3);
            const std::string tag =
                std::string(k::isa_name(isa)) + "_n" + std::to_string(n);
            bench::json_metric("sweep_ntt_fwd_" + tag + "_ms", t_fwd * 1e3);
            bench::json_metric("sweep_ntt_inv_" + tag + "_ms", t_inv * 1e3);
        }
    }

    std::printf("\n%-8s %8s %8s %16s\n", "isa", "n", "digits",
                "ks inner ms");
    for (u64 n : sizes) {
        const ckks::Modulus q(ckks::generate_ntt_primes(61, 1, n)[0]);
        std::mt19937_64 rng(17 + n);
        std::uniform_int_distribution<u64> dist(0, q.value() - 1);
        for (u64 nd : digit_counts) {
            std::vector<std::vector<u64>> xs_s(nd), bs_s(nd), as_s(nd);
            std::vector<const u64*> xs(nd), bs(nd), as(nd);
            for (u64 d = 0; d < nd; ++d) {
                xs_s[d].resize(n);
                bs_s[d].resize(n);
                as_s[d].resize(n);
                for (u64 j = 0; j < n; ++j) {
                    xs_s[d][j] = dist(rng);
                    bs_s[d][j] = dist(rng);
                    as_s[d][j] = dist(rng);
                }
                xs[d] = xs_s[d].data();
                bs[d] = bs_s[d].data();
                as[d] = as_s[d].data();
            }
            std::vector<u64> o0(n, 0), o1(n, 0);
            const int iters =
                bench::smoke() ? 2
                               : static_cast<int>((u64(1) << 22) / (n * nd));
            for (k::Isa isa : isas) {
                const k::KernelTable& t = k::table(isa);
                const double t_ip = bench::time_median(bench::reps(5), [&] {
                    for (int i = 0; i < iters; ++i) {
                        t.ks_inner_product(o0.data(), o1.data(), xs.data(),
                                           bs.data(), as.data(), nd, n, q);
                    }
                }) / iters;
                std::printf("%-8s %8llu %8llu %16.4f\n", k::isa_name(isa),
                            static_cast<unsigned long long>(n),
                            static_cast<unsigned long long>(nd),
                            t_ip * 1e3);
                const std::string tag = std::string(k::isa_name(isa)) +
                                        "_n" + std::to_string(n) + "_d" +
                                        std::to_string(nd);
                bench::json_metric("sweep_ks_ip_" + tag + "_ms", t_ip * 1e3);
            }
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header("Kernel microbenchmark: NTT / key switch / rotation");
    std::printf("[simd dispatch: %s]\n", k::isa_name(k::active_isa()));
    bench::json_metric("simd_isa", static_cast<double>(k::active_isa()));

    // ---- raw NTT on one limb ----------------------------------------
    const u64 n = bench::smoke() ? (u64(1) << 11) : (u64(1) << 13);
    const ckks::Modulus q(ckks::generate_ntt_primes(50, 1, n)[0]);
    const ckks::NttTables tables(n, q);

    std::mt19937_64 rng(7);
    std::uniform_int_distribution<u64> dist(0, q.value() - 1);
    std::vector<u64> poly(n);
    for (u64& x : poly) x = dist(rng);
    const std::vector<u64> original = poly;

    const int ntt_iters = bench::smoke() ? 4 : 200;
    const double t_fwd = bench::time_median(bench::reps(7), [&] {
        for (int i = 0; i < ntt_iters; ++i) tables.forward(poly.data());
    }) / ntt_iters;
    const double t_inv = bench::time_median(bench::reps(7), [&] {
        for (int i = 0; i < ntt_iters; ++i) tables.inverse(poly.data());
    }) / ntt_iters;
    // Self-check: the timed transforms are inverses in pairs, so after an
    // equal number of forward and inverse passes the data must be intact.
    ORION_CHECK(poly == original, "NTT roundtrip corrupted the polynomial");

    std::printf("NTT (N = %llu, 50-bit prime, single limb)\n",
                static_cast<unsigned long long>(n));
    std::printf("  forward: %10.4f ms\n", t_fwd * 1e3);
    std::printf("  inverse: %10.4f ms\n", t_inv * 1e3);
    bench::json_metric("ntt_n", static_cast<double>(n));
    bench::json_metric("ntt_forward_ms", t_fwd * 1e3);
    bench::json_metric("ntt_inverse_ms", t_inv * 1e3);

    // ---- key-switch decompose + inner product -----------------------
    ckks::CkksParams params = ckks::CkksParams::toy();
    if (!bench::smoke()) {
        params.poly_degree = u64(1) << 13;
        params.log_scale = 35;
        params.first_prime_bits = 45;
        params.num_scale_primes = 12;
        params.special_prime_bits = 46;
        params.digit_size = 3;
    }
    ckks::Context ctx(params);
    ckks::Encoder enc(ctx);
    ckks::KeyGenerator keygen(ctx, 7);
    const ckks::KswitchKey relin = keygen.make_relin_key();
    ckks::GaloisKeys galois = keygen.make_galois_keys(std::vector<int>{1, 2});
    const ckks::PublicKey pk = keygen.make_public_key();
    ckks::Encryptor encryptor(ctx, pk);
    ckks::Evaluator eval(ctx, enc);
    eval.set_galois_keys(&galois);
    const ckks::KeySwitcher switcher(ctx);

    const int level = ctx.max_level();
    const ckks::Plaintext pt = enc.encode(
        bench::random_vector(ctx.slot_count(), 1.0, 11), level, ctx.scale());
    const ckks::Ciphertext ct = encryptor.encrypt(pt);

    const std::vector<ckks::RnsPoly> digits = switcher.decompose(ct.c1);
    ckks::RnsPoly acc0(ctx, level, /*extended=*/true, /*ntt_form=*/true);
    ckks::RnsPoly acc1(ctx, level, /*extended=*/true, /*ntt_form=*/true);
    const int ks_iters = bench::smoke() ? 2 : 20;
    const double t_ip = bench::time_median(bench::reps(5), [&] {
        for (int i = 0; i < ks_iters; ++i) {
            switcher.inner_product(digits, relin, &acc0, &acc1);
        }
    }) / ks_iters;
    const double t_dec = bench::time_median(bench::reps(5), [&] {
        (void)switcher.decompose(ct.c1);
    });
    // Stage 3 on one extended polynomial at max level (the accumulator
    // above); each timed call works on a copy made outside the clock.
    std::vector<double> md_times;
    for (int i = 0; i < bench::reps(5) * ks_iters; ++i) {
        ckks::RnsPoly a = acc0;
        md_times.push_back(bench::time_once([&] { a.mod_down_special(); }));
    }
    std::sort(md_times.begin(), md_times.end());
    const double t_md = md_times[md_times.size() / 2];

    std::printf("\nkey switch (N = %llu, %d digits, level %d)\n",
                static_cast<unsigned long long>(ctx.degree()),
                ctx.num_digits(level), level);
    std::printf("  decompose:     %10.4f ms\n", t_dec * 1e3);
    std::printf("  inner product: %10.4f ms\n", t_ip * 1e3);
    std::printf("  mod down:      %10.4f ms\n", t_md * 1e3);
    bench::json_metric("ks_degree", static_cast<double>(ctx.degree()));
    bench::json_metric("ks_decompose_ms", t_dec * 1e3);
    bench::json_metric("ks_inner_product_ms", t_ip * 1e3);
    bench::json_metric("ks_mod_down_ms", t_md * 1e3);

    // ---- rotation accumulation (the BSGS giant-step primitive) ------
    const int acc_iters = bench::smoke() ? 1 : 5;
    const double t_acc = bench::time_median(bench::reps(5), [&] {
        for (int i = 0; i < acc_iters; ++i) {
            auto acc = eval.make_accumulator(level, ct.scale);
            eval.accumulate_rotation(acc, ct, 1);
            eval.accumulate_rotation(acc, ct, 2);
            eval.accumulate_rotation(acc, ct, 0);
            (void)eval.finalize_accumulator(acc);
        }
    }) / acc_iters;
    std::printf("\nrotation accumulate (2 rotations + step 0 + finalize)\n");
    std::printf("  accumulate: %10.4f ms\n", t_acc * 1e3);
    bench::json_metric("rotation_accumulate_ms", t_acc * 1e3);

    // Arena effectiveness over the timed section: every RnsPoly buffer
    // after warmup should have come from the pool, not the heap.
    const ckks::OpCounters& c = ctx.counters();
    std::printf("\narena: %llu poly acquisitions, %llu pool hits (%.1f%%)\n",
                static_cast<unsigned long long>(c.poly_alloc.value()),
                static_cast<unsigned long long>(c.poly_arena_hit.value()),
                100.0 * static_cast<double>(c.poly_arena_hit.value()) /
                    static_cast<double>(
                        std::max<u64>(c.poly_alloc.value(), 1)));
    bench::json_metric("poly_alloc",
                       static_cast<double>(c.poly_alloc.value()));
    bench::json_metric("poly_arena_hit",
                       static_cast<double>(c.poly_arena_hit.value()));

    sweep_isas();

    return 0;
}
