/**
 * @file
 * MNIST MLP under real FHE: the paper's smallest Table 2 row, run
 * end-to-end under RNS-CKKS encryption on this machine and validated
 * against the cleartext network over a batch of inputs (the paper's
 * validation methodology, Section 7). The whole pipeline - context,
 * keys, compile, execute - is driven through one orion::Session.
 */

#include <cstdio>
#include <random>

#include "src/core/orion.h"

using namespace orion;

int
main()
{
    const nn::Network net = nn::make_model("mlp");
    std::printf("MLP: %.2fM parameters (paper: 0.12M)\n",
                net.param_count() / 1e6);

    // Functional CKKS parameters sized for the 784-dim input (NOT secure;
    // see DESIGN.md on parameter substitution).
    Session session =
        Session::with_params(ckks::CkksParams::network(u64(1) << 13, 8),
                             /*l_eff=*/6);
    const core::CompiledNetwork& compiled = session.compile(net);
    std::printf("compiled in %.2f s: %llu rotations, depth %d, "
                "%llu bootstraps (paper: 70 rots, depth 5, 0 boots)\n",
                compiled.compile_seconds,
                static_cast<unsigned long long>(compiled.total_rotations),
                compiled.activation_depth,
                static_cast<unsigned long long>(compiled.num_bootstraps));
    std::printf("rotation keys: %.1f MB\n",
                static_cast<double>(session.executor().galois_key_bytes()) /
                    1e6);

    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const int batch = 5;
    int top1 = 0;
    double total_time = 0.0;
    double worst_err = 0.0;
    for (int b = 0; b < batch; ++b) {
        std::vector<double> image(784);
        for (double& x : image) x = dist(rng);
        const std::vector<double> clear = net.forward(image);
        const core::ExecutionResult r = session.run({image});
        const std::vector<double>& out = r.outputs[0];
        total_time += r.wall_seconds;

        std::size_t ic = 0, ie = 0;
        double err = 0;
        for (std::size_t i = 0; i < clear.size(); ++i) {
            if (clear[i] > clear[ic]) ic = i;
            if (out[i] > out[ie]) ie = i;
            err = std::max(err, std::abs(out[i] - clear[i]));
        }
        worst_err = std::max(worst_err, err);
        if (ic == ie) ++top1;
        std::printf("  sample %d: encrypted argmax %zu, cleartext %zu, "
                    "max err %.2e, %.2f s\n",
                    b, ie, ic, err, r.wall_seconds);
    }
    std::printf("\ntop-1 agreement: %d/%d, worst error %.2e "
                "(%.1f bits), mean latency %.2f s\n"
                "(paper: 98.03%% FHE accuracy matching cleartext, 4.6 bits, "
                "0.29 s on Xeon 8581C)\n",
                top1, batch, worst_err, -std::log2(worst_err),
                total_time / batch);
    return 0;
}
