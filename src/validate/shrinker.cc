#include "validate/shrinker.hh"

#include <algorithm>

namespace dramctrl {
namespace validate {

namespace {

/**
 * @p s without entries [from, from + count). Every later entry moves
 * back by the span the cut entries covered, so each keeps its gap to
 * the entry before it.
 */
RequestStream
without(const RequestStream &s, std::size_t from, std::size_t count)
{
    const Tick span =
        s[from + count - 1].tick - (from > 0 ? s[from - 1].tick : 0);
    RequestStream out(s.begin(), s.begin() + from);
    out.reserve(s.size() - count);
    for (std::size_t i = from + count; i < s.size(); ++i) {
        out.push_back(s[i]);
        out.back().tick -= span;
    }
    return out;
}

} // namespace

ShrinkOutcome
shrinkStreamWith(const RequestStream &failing,
                 const std::function<bool(const RequestStream &)> &fails,
                 unsigned maxEvaluations)
{
    ShrinkOutcome out;
    out.stream = failing;

    std::size_t chunk = std::max<std::size_t>(out.stream.size() / 2, 1);
    while (chunk >= 1) {
        bool removedAny = false;
        for (std::size_t from = 0; from < out.stream.size();) {
            if (out.evaluations >= maxEvaluations)
                return out;
            std::size_t count =
                std::min(chunk, out.stream.size() - from);
            if (count == out.stream.size())
                break; // never probe the empty stream
            RequestStream cand = without(out.stream, from, count);
            ++out.evaluations;
            if (fails(cand)) {
                out.stream = std::move(cand);
                removedAny = true;
                // Same index now names the next chunk; stay put.
            } else {
                from += count;
            }
        }
        if (chunk == 1) {
            // A full single-request sweep with no removal: minimal.
            if (!removedAny) {
                out.minimal = true;
                break;
            }
        } else {
            chunk = chunk / 2;
        }
    }
    return out;
}

ShrinkOutcome
shrinkStream(const FuzzCase &fc, const RequestStream &failing,
             const DiffOptions &opts, unsigned maxEvaluations)
{
    return shrinkStreamWith(
        failing,
        [&](const RequestStream &cand) {
            return !runDiffStream(fc, cand, opts).pass;
        },
        maxEvaluations);
}

} // namespace validate
} // namespace dramctrl
