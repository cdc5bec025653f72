#include "dsm/experiment.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ltp
{

unsigned
parseSimThreads(const char *text)
{
    unsigned long value = 0;
    const char *p = text;
    bool any = false;
    for (; *p >= '0' && *p <= '9'; ++p) {
        any = true;
        value = value * 10 + unsigned(*p - '0');
        if (value > maxSimThreads)
            break; // cap the accumulator; the range check below fires
    }
    if (!any || *p != '\0' || value == 0 || value > maxSimThreads) {
        throw std::invalid_argument(
            std::string("LTP_SIM_THREADS must be an integer in [1, ") +
            std::to_string(maxSimThreads) + "], got \"" + text + "\"");
    }
    return unsigned(value);
}

unsigned
scaleIterations(unsigned iters, double scale)
{
    std::ostringstream err;
    if (!(scale > 0) || !std::isfinite(scale)) {
        err << "iterScale must be a positive finite number, got " << scale;
        throw std::invalid_argument(err.str());
    }
    if (scale == 1.0)
        return iters;
    double scaled = std::round(iters * scale);
    if (scaled > double(std::numeric_limits<unsigned>::max())) {
        err << "iterScale " << scale << " scales " << iters
            << " iterations out of range";
        throw std::invalid_argument(err.str());
    }
    return std::max(1u, unsigned(scaled));
}

RunResult
runExperiment(const ExperimentSpec &spec)
{
    SystemParams sp = SystemParams::withPredictor(spec.predictor,
                                                  spec.mode, spec.sigBits);
    if (spec.nodes)
        sp.numNodes = *spec.nodes;
    if (spec.simThreads) {
        sp.simThreads = *spec.simThreads;
    } else if (const char *env = std::getenv("LTP_SIM_THREADS")) {
        sp.simThreads = parseSimThreads(env);
    }
    if (spec.net) {
        sp.net = *spec.net;
    } else {
        sp.net.topology = spec.topology;
        sp.net.routing = spec.routing;
    }
    sp.obs = spec.obs ? *spec.obs : obs::obsParamsFromEnv();
    sp.guard = spec.guard ? *spec.guard : guard::guardParamsFromEnv();

    KernelConfig cfg =
        spec.config ? *spec.config : defaultConfig(spec.kernel);
    cfg.nodes = sp.numNodes;
    cfg.iters = scaleIterations(cfg.iters, spec.iterScale);

    DsmSystem sys(sp);
    auto kernel = makeKernel(spec.kernel);
    return sys.run(*kernel, cfg);
}

SpeedupResult
runSpeedup(const std::string &kernel, PredictorKind kind,
           unsigned sig_bits)
{
    ExperimentSpec base_spec;
    base_spec.kernel = kernel;
    base_spec.predictor = PredictorKind::Base;
    base_spec.mode = PredictorMode::Off;

    ExperimentSpec pred_spec;
    pred_spec.kernel = kernel;
    pred_spec.predictor = kind;
    pred_spec.mode = PredictorMode::Active;
    pred_spec.sigBits = sig_bits;

    SpeedupResult r;
    r.base = runExperiment(base_spec);
    r.pred = runExperiment(pred_spec);
    return r;
}

} // namespace ltp
