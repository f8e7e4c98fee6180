#include "core/policy_gladiator.h"

#include <stdexcept>

namespace gld {

namespace {

std::shared_ptr<const PatternTableSet>
require_rounds(std::shared_ptr<const PatternTableSet> tables, bool two_round,
               const char* who)
{
    if (tables == nullptr || tables->two_round() != two_round)
        throw std::invalid_argument(std::string(who) + " needs " +
                                    (two_round ? "two-round" : "single-round") +
                                    " pattern tables");
    return tables;
}

}  // namespace

GladiatorPolicy::GladiatorPolicy(
    const CodeContext& ctx, std::shared_ptr<const PatternTableSet> tables,
    bool use_mlr)
    : TablePolicy(ctx,
                  require_rounds(std::move(tables), false, "GladiatorPolicy"),
                  use_mlr)
{
}

GladiatorDPolicy::GladiatorDPolicy(
    const CodeContext& ctx, std::shared_ptr<const PatternTableSet> tables,
    bool use_mlr)
    : TablePolicy(ctx,
                  require_rounds(std::move(tables), true, "GladiatorDPolicy"),
                  use_mlr)
{
}

}  // namespace gld
