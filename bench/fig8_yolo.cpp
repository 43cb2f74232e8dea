/**
 * @file
 * Figure 8 / Section 8.6: the first high-resolution homomorphic object
 * detection - YOLO-v1 (ResNet-34 backbone, 139M parameters) on a
 * 448 x 448 x 3 image.
 *
 * Without PASCAL-VOC weights the detections are not semantically
 * meaningful; the reproduction target is the *system* result: the
 * compiler handles a 139M-parameter detector end to end, the functional
 * backend executes it, the decoded 7x7x30 tensor matches the cleartext
 * network, and boxes + confidences decode exactly as the paper's
 * pipeline. The modeled single-thread latency is reported against the
 * paper's 17.5 hours.
 */

#include "bench/bench_util.h"

using namespace orion;

namespace {

struct Detection {
    int cell_y, cell_x, cls;
    double confidence;
    double x, y, w, h;
};

/** Decodes the YOLO-v1 7x7x30 output tensor into detections. */
std::vector<Detection>
decode_yolo(const std::vector<double>& out, double threshold)
{
    std::vector<Detection> dets;
    for (int cy = 0; cy < 7; ++cy) {
        for (int cx = 0; cx < 7; ++cx) {
            const std::size_t base =
                (static_cast<std::size_t>(cy) * 7 + cx) * 30;
            int best_cls = 0;
            for (int c = 1; c < 20; ++c) {
                if (out[base + c] > out[base + best_cls]) best_cls = c;
            }
            for (int b = 0; b < 2; ++b) {
                const std::size_t bb = base + 20 + 5 * static_cast<std::size_t>(b);
                const double conf = out[bb + 4] * out[base + best_cls];
                if (conf > threshold) {
                    dets.push_back({cy, cx, best_cls, conf, out[bb],
                                    out[bb + 1], out[bb + 2], out[bb + 3]});
                }
            }
        }
    }
    std::sort(dets.begin(), dets.end(),
              [](const Detection& a, const Detection& b) {
                  return a.confidence > b.confidence;
              });
    return dets;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header(
        "Figure 8: YOLO-v1 object detection under FHE (448x448x3)");

    // Smoke: building + forwarding the 270M-parameter YOLO-v1 takes
    // minutes of CPU; a small CNN exercises the same compile/simulate
    // pipeline (the detection decode below is skipped for it).
    const nn::Network net =
        bench::smoke() ? nn::make_model("lenet5") : nn::make_yolo_v1();
    std::printf("model: %s, %.1fM parameters, %.1fG multiplies\n",
                net.network_name().c_str(), net.param_count() / 1e6,
                net.flop_count() / 1e9);
    std::fflush(stdout);

    core::CompileOptions opt;
    opt.slots = u64(1) << 15;
    opt.l_eff = 10;
    opt.structural_only = true;
    opt.calibration_samples = 1;
    const core::CompiledNetwork cn = core::compile(net, opt);
    std::printf("compiled in %.1f s (placement %.2f s): %llu rotations, "
                "%llu bootstraps, act depth %d\n",
                cn.compile_seconds, cn.placement_seconds,
                static_cast<unsigned long long>(cn.total_rotations),
                static_cast<unsigned long long>(cn.num_bootstraps),
                cn.activation_depth);
    std::fflush(stdout);

    // Synthetic image -> functional FHE inference.
    const std::vector<double> image = bench::random_vector(
        net.shape_of(net.input_id()).size(), 1.0, 7);
    core::SimExecutor sim(cn, 1e-6);
    const core::ExecutionResult r = sim.run({image});
    const std::vector<double> clear = net.forward(image);

    const double prec = bench::precision_bits(r.outputs[0], clear);
    std::printf("\nFHE-vs-cleartext output precision: %.1f bits "
                "(paper reports ~8.6b on its ResNet-34 backbone)\n",
                prec);

    if (r.outputs[0].size() < 7 * 7 * 30) {
        std::printf("(smoke stand-in model: detection decode skipped)\n");
        return 0;
    }
    const std::vector<Detection> fhe_dets = decode_yolo(r.outputs[0], 0.05);
    const std::vector<Detection> clear_dets = decode_yolo(clear, 0.05);
    std::printf("detections (FHE): %zu, (cleartext): %zu\n",
                fhe_dets.size(), clear_dets.size());
    const std::size_t show = std::min<std::size_t>(4, fhe_dets.size());
    for (std::size_t i = 0; i < show; ++i) {
        const Detection& d = fhe_dets[i];
        std::printf("  cell (%d,%d) class %2d conf %.2f box "
                    "[%.2f %.2f %.2f %.2f]\n",
                    d.cell_y, d.cell_x, d.cls, d.confidence, d.x, d.y, d.w,
                    d.h);
    }
    // Compare the top detection only: deeper ranks reorder freely when
    // untrained confidences tie within the FHE noise.
    const bool agree =
        !fhe_dets.empty() && !clear_dets.empty() &&
        fhe_dets[0].cls == clear_dets[0].cls &&
        fhe_dets[0].cell_y == clear_dets[0].cell_y &&
        fhe_dets[0].cell_x == clear_dets[0].cell_x;
    std::printf("top FHE and cleartext detections agree: %s\n",
                agree ? "yes" : "no");
    std::printf("\nmodeled single-thread latency at N=2^16: %.1f hours "
                "(paper: 17.5 hours measured on Xeon 8581C)\n",
                cn.modeled_latency / 3600.0);
    return 0;
}
