#include "noise/noise_model.h"

#include <sstream>
#include <stdexcept>

namespace gld {

NoiseParams
NoiseParams::standard(double p, double lr)
{
    NoiseParams np;
    np.p = p;
    np.leak_ratio = lr;
    return np;
}

namespace {

void
require(bool ok, const char* field, double v, const char* range)
{
    if (ok)
        return;
    std::ostringstream msg;
    msg << "noise: \"" << field << "\" " << v << " must be " << range;
    throw std::invalid_argument(msg.str());
}

}  // namespace

void
NoiseParams::validate() const
{
    // Each test states the accepted range, so NaN (every comparison
    // false) is refused too.
    require(p >= 0.0 && p <= 1.0, "p", p, "in [0, 1]");
    require(leak_ratio >= 0.0, "leak_ratio", leak_ratio, "non-negative");
    require(mlr_ratio >= 0.0, "mlr_ratio", mlr_ratio, "non-negative");
    require(mobility >= 0.0 && mobility <= 1.0, "mobility", mobility,
            "in [0, 1]");
    require(lrc_gate_factor >= 0.0, "lrc_gate_factor", lrc_gate_factor,
            "non-negative");
    require(lrc_leak_prob >= 0.0 && lrc_leak_prob <= 1.0, "lrc_leak_prob",
            lrc_leak_prob, "in [0, 1]");
}

}  // namespace gld
