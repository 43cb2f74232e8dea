/**
 * @file
 * Section 8.6 case study as a runnable example: YOLO-v1 (ResNet-34
 * backbone, 139M parameters) object detection on a 448x448x3 image under
 * the functional FHE backend. Prints the predicted boxes with class
 * confidences, mirroring Figure 8's annotated outputs.
 *
 * Note: compiling the 139M-parameter detector takes a few minutes of
 * single-core time (the paper's compile phase is comparable).
 */

#include <cstdio>
#include <random>

#include "src/core/orion.h"

using namespace orion;

int
main()
{
    const nn::Network net = nn::make_yolo_v1();
    std::printf("YOLO-v1 (ResNet-34 backbone): %.0fM parameters on "
                "448x448x3 input\n",
                net.param_count() / 1e6);
    std::printf("the paper calls this the largest FHE inference to date "
                "(Section 8.6)\n\n");
    std::fflush(stdout);

    // Paper-scale simulation-only session (2^15 slots, l_eff 10).
    Session session = Session::simulation();
    core::CompileOptions opt;
    opt.structural_only = true;
    opt.calibration_samples = 1;
    const core::CompiledNetwork& cn = session.compile(net, opt);
    std::printf("compiled: %llu rotations, %llu bootstraps, modeled "
                "latency %.1f h single-thread (paper: 17.5 h)\n",
                static_cast<unsigned long long>(cn.total_rotations),
                static_cast<unsigned long long>(cn.num_bootstraps),
                cn.modeled_latency / 3600.0);
    std::fflush(stdout);

    // A synthetic "image" (datasets are unavailable offline; DESIGN.md).
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> image(3 * 448 * 448);
    for (double& x : image) x = dist(rng);

    const core::ExecutionResult r = session.simulate({image});
    const std::vector<double>& out = r.outputs[0];

    // Decode the 7x7x30 tensor: per cell 20 class scores then 2 boxes.
    std::printf("\ntop detections (class confidence = box conf x class "
                "score):\n");
    struct Det {
        double conf;
        int cy, cx, cls;
    };
    std::vector<Det> dets;
    for (int cy = 0; cy < 7; ++cy) {
        for (int cx = 0; cx < 7; ++cx) {
            const std::size_t base =
                (static_cast<std::size_t>(cy) * 7 + cx) * 30;
            int cls = 0;
            for (int c = 1; c < 20; ++c) {
                if (out[base + c] > out[base + cls]) cls = c;
            }
            for (int b = 0; b < 2; ++b) {
                const double conf =
                    out[base + 20 + 5 * static_cast<std::size_t>(b) + 4] *
                    out[base + cls];
                dets.push_back({conf, cy, cx, cls});
            }
        }
    }
    std::sort(dets.begin(), dets.end(),
              [](const Det& a, const Det& b) { return a.conf > b.conf; });
    for (int i = 0; i < 4; ++i) {
        std::printf("  cell (%d,%d): class %2d, confidence %.2f\n",
                    dets[static_cast<std::size_t>(i)].cy,
                    dets[static_cast<std::size_t>(i)].cx,
                    dets[static_cast<std::size_t>(i)].cls,
                    dets[static_cast<std::size_t>(i)].conf);
    }

    const std::vector<double> clear = net.forward(image);
    double mean_err = 0;
    for (std::size_t i = 0; i < clear.size(); ++i) {
        mean_err += std::abs(out[i] - clear[i]);
    }
    mean_err /= static_cast<double>(clear.size());
    std::printf("\noutput precision vs cleartext: %.1f bits over the "
                "7x7x30 tensor\n",
                -std::log2(mean_err));
    return 0;
}
