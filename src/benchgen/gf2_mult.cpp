#include "benchgen/gf2_mult.h"

#include <numeric>

#include "mathx/gf2poly.h"
#include "util/error.h"

namespace leqa::benchgen {

namespace {

std::vector<int> middle_terms_for(int n, Gf2PolyForm form) {
    switch (form) {
        case Gf2PolyForm::Auto:
            return mathx::irreducible_middle_terms(n, /*force_pentanomial=*/false);
        case Gf2PolyForm::Trinomial: {
            const auto t = mathx::find_irreducible_trinomial(n);
            LEQA_REQUIRE(t.has_value(),
                         "no irreducible trinomial of degree " + std::to_string(n));
            return {*t};
        }
        case Gf2PolyForm::Pentanomial:
            return mathx::irreducible_middle_terms(n, /*force_pentanomial=*/true);
    }
    throw util::InternalError("unhandled polynomial form");
}

std::string poly_to_string(int n, const std::vector<int>& middle) {
    std::string out = "x^" + std::to_string(n);
    for (const int t : middle) {
        out += t == 1 ? " + x" : " + x^" + std::to_string(t);
    }
    return out + " + 1";
}

} // namespace

circuit::Circuit gf2_mult(const Gf2MultSpec& spec) {
    LEQA_REQUIRE(spec.n >= 2, "gf2_mult: n must be >= 2");
    const int n = spec.n;
    const auto middle = middle_terms_for(n, spec.form);

    circuit::Circuit circ(0, "gf2^" + std::to_string(n) + "mult");
    for (int i = 0; i < n; ++i) circ.add_qubit("a" + std::to_string(i));
    for (int i = 0; i < n; ++i) circ.add_qubit("b" + std::to_string(i));
    for (int i = 0; i < n; ++i) circ.add_qubit("c" + std::to_string(i));
    circ.add_comment("generator: gf2_mult n=" + std::to_string(n));
    circ.add_comment("reduction polynomial: " + poly_to_string(n, middle));
    circ.add_comment("garbage: b register ends as b * x^(n-1) mod p");
    circ.reserve_gates(gf2_mult_gate_count(n, middle.size()));

    const auto a_wire = [&](int i) { return static_cast<circuit::Qubit>(i); };
    const auto c_wire = [&](int i) { return static_cast<circuit::Qubit>(2 * n + i); };

    // wire_of[k] = physical b wire currently holding coefficient k of
    // b * x^i mod p.  Rotating this table is the free relabeling.
    std::vector<circuit::Qubit> wire_of(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) wire_of[k] = static_cast<circuit::Qubit>(n + k);

    for (int i = 0; i < n; ++i) {
        // c_k ^= a_i & (b * x^i)_k for all k.
        for (int k = 0; k < n; ++k) {
            circ.toffoli(a_wire(i), wire_of[k], c_wire(k));
        }
        if (i == n - 1) break;
        // b <- b * x mod p: coefficient n-1 wraps into position 0 and feeds
        // back into each middle term; the cyclic renaming is gate-free.
        const circuit::Qubit wrap = wire_of[n - 1];
        for (int k = n - 1; k >= 1; --k) wire_of[k] = wire_of[k - 1];
        wire_of[0] = wrap;
        for (const int t : middle) {
            circ.cnot(wire_of[0], wire_of[t]);
        }
    }

    LEQA_CHECK(circ.size() == gf2_mult_gate_count(n, middle.size()),
               "gf2_mult gate count mismatch");
    return circ;
}

std::size_t gf2_mult_gate_count(int n, std::size_t middle_terms) {
    return static_cast<std::size_t>(n) * n +
           static_cast<std::size_t>(n - 1) * middle_terms;
}

std::size_t gf2_mult_ft_op_count(int n, std::size_t middle_terms) {
    return 15 * static_cast<std::size_t>(n) * n +
           static_cast<std::size_t>(n - 1) * middle_terms;
}

namespace {
std::uint64_t mulmod_bits(int n, const std::vector<int>& middle, std::uint64_t a,
                          std::uint64_t b) {
    LEQA_REQUIRE(n <= 63, "reference multiplier supports n <= 63");
    const std::uint64_t mask = (1ULL << n) - 1;
    std::uint64_t result = 0;
    std::uint64_t shifted_b = b & mask;
    for (int i = 0; i < n; ++i) {
        if ((a >> i) & 1ULL) result ^= shifted_b;
        // shifted_b <- shifted_b * x mod p.
        const std::uint64_t wrap = (shifted_b >> (n - 1)) & 1ULL;
        shifted_b = (shifted_b << 1) & mask;
        if (wrap) {
            shifted_b ^= 1ULL;
            for (const int t : middle) shifted_b ^= 1ULL << t;
        }
    }
    return result;
}
} // namespace

std::uint64_t gf2_mult_reference(int n, Gf2PolyForm form, std::uint64_t a,
                                 std::uint64_t b) {
    return mulmod_bits(n, middle_terms_for(n, form), a, b);
}

std::uint64_t gf2_mult_b_residue(int n, Gf2PolyForm form, std::uint64_t b) {
    const auto middle = middle_terms_for(n, form);
    const std::uint64_t mask = (1ULL << n) - 1;
    std::uint64_t value = b & mask;
    for (int i = 0; i < n - 1; ++i) {
        const std::uint64_t wrap = (value >> (n - 1)) & 1ULL;
        value = (value << 1) & mask;
        if (wrap) {
            value ^= 1ULL;
            for (const int t : middle) value ^= 1ULL << t;
        }
    }
    return value;
}

} // namespace leqa::benchgen
