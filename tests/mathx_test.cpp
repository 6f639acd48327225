// Unit + property tests for the mathx module: binomials (Eq. 4/18), M/M/1
// queue algebra (Eqs. 8-11), TSP bounds (Eqs. 13-15), stats and fits.
#include <gtest/gtest.h>

#include <cmath>

#include "mathx/binomial.h"
#include "mathx/gf2poly.h"
#include "mathx/queueing.h"
#include "mathx/stats.h"
#include "mathx/tsp.h"
#include "util/error.h"
#include "util/rng.h"

namespace lm = leqa::mathx;

// --------------------------------------------------------------- binomial --

TEST(Binomial, SmallExactValues) {
    EXPECT_DOUBLE_EQ(lm::binomial(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(lm::binomial(5, 0), 1.0);
    EXPECT_DOUBLE_EQ(lm::binomial(5, 5), 1.0);
    EXPECT_NEAR(lm::binomial(5, 2), 10.0, 1e-9);
    EXPECT_NEAR(lm::binomial(10, 3), 120.0, 1e-6);
    EXPECT_NEAR(lm::binomial(52, 5), 2598960.0, 1e-3);
}

TEST(Binomial, RejectsBadArguments) {
    EXPECT_THROW((void)lm::log_binomial(-1, 0), leqa::util::InputError);
    EXPECT_THROW((void)lm::log_binomial(3, 4), leqa::util::InputError);
    EXPECT_THROW((void)lm::log_binomial(3, -1), leqa::util::InputError);
}

TEST(Binomial, RecursiveRowMatchesLogSpace) {
    // The paper's Eq. 18 recursion must agree with the lgamma-based form.
    for (const std::int64_t n : {1, 2, 5, 17, 40, 100}) {
        const auto row = lm::binomial_row_recursive(n, n);
        for (std::int64_t k = 0; k <= n; ++k) {
            const double expected = lm::binomial(n, k);
            const double got = row[static_cast<std::size_t>(k)];
            EXPECT_NEAR(got / expected, 1.0, 1e-9)
                << "n=" << n << " k=" << k;
        }
    }
}

TEST(BinomialPmf, SumsToOne) {
    for (const double p : {0.01, 0.3, 0.5, 0.97}) {
        const std::int64_t n = 60;
        double sum = 0.0;
        for (std::int64_t k = 0; k <= n; ++k) sum += lm::binomial_pmf(n, k, p);
        EXPECT_NEAR(sum, 1.0, 1e-9) << "p=" << p;
    }
}

TEST(BinomialPmf, Endpoints) {
    EXPECT_DOUBLE_EQ(lm::binomial_pmf(10, 0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(lm::binomial_pmf(10, 3, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(lm::binomial_pmf(10, 10, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(lm::binomial_pmf(10, 9, 1.0), 0.0);
}

TEST(BinomialPmf, LargeNNoUnderflowBlowup) {
    // Q ~ 3145 qubits (hwb200ps): direct C(n,k) overflows a double, the
    // log-space path must stay finite and normalized over a window.
    const std::int64_t n = 3145;
    const double p = 0.004;
    double sum = 0.0;
    for (std::int64_t k = 0; k <= 100; ++k) {
        const double value = lm::binomial_pmf(n, k, p);
        EXPECT_TRUE(std::isfinite(value));
        EXPECT_GE(value, 0.0);
        sum += value;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6); // tail beyond k=100 is negligible
}

TEST(BinomialPmf, MatchesDirectComputationSmallN) {
    for (std::int64_t n : {1, 4, 12}) {
        for (std::int64_t k = 0; k <= n; ++k) {
            const double p = 0.37;
            const double direct =
                lm::binomial(n, k) * std::pow(p, double(k)) * std::pow(1 - p, double(n - k));
            EXPECT_NEAR(lm::binomial_pmf(n, k, p), direct, 1e-12);
        }
    }
}

// --------------------------------------------------------------- queueing --

TEST(Queueing, Mm1BasicAlgebra) {
    const lm::Mm1Queue queue{0.5, 2.0};
    EXPECT_DOUBLE_EQ(queue.utilization(), 0.25);
    EXPECT_DOUBLE_EQ(queue.average_queue_length(), 0.5 / 1.5);
    EXPECT_DOUBLE_EQ(queue.average_wait(), 1.0 / 1.5);
}

TEST(Queueing, UnstableQueueThrows) {
    const lm::Mm1Queue queue{2.0, 1.0};
    EXPECT_THROW((void)queue.average_queue_length(), leqa::util::Error);
}

TEST(Queueing, ServiceRateDefinition) {
    // mu = Nc / d_uncongest (paper Section 3.1).
    EXPECT_DOUBLE_EQ(lm::channel_service_rate(5.0, 1000.0), 0.005);
}

TEST(Queueing, Equation10RoundTrip) {
    // lambda derived from q must reproduce q through the M/M/1 length
    // formula: q = lambda / (mu - lambda).
    const double nc = 5.0;
    const double d = 800.0;
    const double mu = lm::channel_service_rate(nc, d);
    for (const double q : {0.5, 1.0, 7.0, 30.0}) {
        const double lambda = lm::arrival_rate_from_queue_length(q, nc, d);
        const lm::Mm1Queue queue{lambda, mu};
        EXPECT_NEAR(queue.average_queue_length(), q, 1e-9) << "q=" << q;
    }
}

TEST(Queueing, Equation11LittleLaw) {
    // W = L / lambda must equal the closed form (1+q) d / Nc (paper Eq. 11).
    const double nc = 5.0;
    const double d = 800.0;
    for (const double q : {0.25, 1.0, 6.0, 42.0}) {
        const double lambda = lm::arrival_rate_from_queue_length(q, nc, d);
        const double w_little = q / lambda;
        const double w_closed = lm::average_wait_from_queue_length(q, nc, d);
        EXPECT_NEAR(w_little, w_closed, 1e-9) << "q=" << q;
    }
}

TEST(Queueing, Equation8Piecewise) {
    const double nc = 5.0;
    const double d = 1000.0;
    // Uncongested branch: q <= Nc.
    EXPECT_DOUBLE_EQ(lm::congested_delay(0.0, nc, d), d);
    EXPECT_DOUBLE_EQ(lm::congested_delay(3.0, nc, d), d);
    EXPECT_DOUBLE_EQ(lm::congested_delay(5.0, nc, d), d);
    // Congested branch: (1+q) d / Nc.
    EXPECT_DOUBLE_EQ(lm::congested_delay(9.0, nc, d), 10.0 * d / 5.0);
    EXPECT_DOUBLE_EQ(lm::congested_delay(19.0, nc, d), 20.0 * d / 5.0);
}

TEST(Queueing, CongestedDelayMonotoneInQ) {
    const double nc = 5.0;
    const double d = 1000.0;
    double previous = 0.0;
    for (double q = 0.0; q < 40.0; q += 1.0) {
        const double now = lm::congested_delay(q, nc, d);
        EXPECT_GE(now, previous);
        previous = now;
    }
}

// -------------------------------------------------------------------- tsp --

TEST(Tsp, BoundsOrderAndMidpoint) {
    for (const double n : {2.0, 5.0, 17.0, 100.0, 1000.0}) {
        const double lower = lm::tsp_tour_lower_bound(n);
        const double upper = lm::tsp_tour_upper_bound(n);
        const double mid = lm::tsp_tour_estimate(n);
        EXPECT_LT(lower, upper);
        EXPECT_NEAR(mid, (lower + upper) / 2.0, 1e-12);
    }
}

TEST(Tsp, PaperConstants) {
    // Eq. 13: 0.708 sqrt(n) + 0.551 ; Eq. 14: 0.718 sqrt(n) + 0.731.
    EXPECT_NEAR(lm::tsp_tour_lower_bound(4.0), 0.708 * 2 + 0.551, 1e-12);
    EXPECT_NEAR(lm::tsp_tour_upper_bound(4.0), 0.718 * 2 + 0.731, 1e-12);
    EXPECT_NEAR(lm::tsp_tour_estimate(4.0), 0.713 * 2 + 0.641, 1e-12);
}

TEST(Tsp, HamiltonianPathEquation15) {
    // E[l] = sqrt(B) * (0.713 sqrt(M+1) + 0.641) * (M-1)/M.
    const double b = 9.0;
    const double m = 8.0;
    const double expected = 3.0 * (0.713 * 3.0 + 0.641) * (7.0 / 8.0);
    EXPECT_NEAR(lm::expected_hamiltonian_path(b, m), expected, 1e-12);
}

TEST(Tsp, HamiltonianPathDegenerateCases) {
    // M = 1 vanishes exactly (documented artifact of the tour->path factor).
    EXPECT_DOUBLE_EQ(lm::expected_hamiltonian_path(4.0, 1.0), 0.0);
    EXPECT_THROW((void)lm::expected_hamiltonian_path(4.0, 0.0), leqa::util::InputError);
    EXPECT_THROW((void)lm::expected_hamiltonian_path(-1.0, 2.0), leqa::util::InputError);
}

TEST(Tsp, HamiltonianPathMonotoneInAreaAndDegree) {
    double previous = 0.0;
    for (double m = 2.0; m < 50.0; m += 1.0) {
        const double value = lm::expected_hamiltonian_path(16.0, m);
        EXPECT_GT(value, previous);
        previous = value;
    }
    EXPECT_LT(lm::expected_hamiltonian_path(4.0, 10.0),
              lm::expected_hamiltonian_path(25.0, 10.0));
}

// ------------------------------------------------------------------ stats --

TEST(Stats, Descriptives) {
    const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(lm::mean(values), 2.5);
    EXPECT_DOUBLE_EQ(lm::variance(values), 1.25);
    EXPECT_DOUBLE_EQ(lm::stddev(values), std::sqrt(1.25));
    EXPECT_DOUBLE_EQ(lm::min_value(values), 1.0);
    EXPECT_DOUBLE_EQ(lm::max_value(values), 4.0);
    EXPECT_THROW((void)lm::mean(std::vector<double>{}), leqa::util::InputError);
}

TEST(Stats, Percentile) {
    std::vector<double> values{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(lm::percentile(values, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(lm::percentile(values, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(lm::percentile(values, 50.0), 2.5);
}

TEST(Stats, NearestRankPercentileBoundaries) {
    // The pinned formula: rank = ceil(fraction * N) clamped to [1, N], the
    // result is the rank-th smallest sample (1-based).
    // Empty window: no samples, 0.0 by definition (the service's idle stats).
    EXPECT_EQ(lm::nearest_rank_percentile({}, 0.0), 0.0);
    EXPECT_EQ(lm::nearest_rank_percentile({}, 0.5), 0.0);
    EXPECT_EQ(lm::nearest_rank_percentile({}, 0.99), 0.0);

    // A single sample answers every fraction.
    for (const double fraction : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_EQ(lm::nearest_rank_percentile({7.5}, fraction), 7.5) << fraction;
    }

    // Small rings saturate high fractions: ceil(0.99 N) == N for N < 100,
    // so p99 is the maximum until the window holds 100 samples.
    EXPECT_EQ(lm::nearest_rank_percentile({2.0, 1.0}, 0.99), 2.0);
    EXPECT_EQ(lm::nearest_rank_percentile({3.0, 1.0, 2.0}, 0.99), 3.0);
    std::vector<double> ninety_nine;
    for (int i = 1; i <= 99; ++i) ninety_nine.push_back(i);
    EXPECT_EQ(lm::nearest_rank_percentile(ninety_nine, 0.99), 99.0);
    std::vector<double> one_hundred = ninety_nine;
    one_hundred.push_back(100.0);
    // N = 100 is the first window where p99 drops off the maximum.
    EXPECT_EQ(lm::nearest_rank_percentile(one_hundred, 0.99), 99.0);

    // Exact ranks, both parities: N=4 p50 -> rank ceil(2) = 2; N=5 p50 ->
    // rank ceil(2.5) = 3 (the true median).
    EXPECT_EQ(lm::nearest_rank_percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.0);
    EXPECT_EQ(lm::nearest_rank_percentile({5.0, 4.0, 1.0, 3.0, 2.0}, 0.5), 3.0);

    // Fraction 0 clamps the rank up to 1 (minimum); fraction 1 is rank N.
    EXPECT_EQ(lm::nearest_rank_percentile({4.0, 1.0, 3.0}, 0.0), 1.0);
    EXPECT_EQ(lm::nearest_rank_percentile({4.0, 1.0, 3.0}, 1.0), 4.0);

    EXPECT_THROW((void)lm::nearest_rank_percentile({1.0}, -0.1),
                 leqa::util::InputError);
    EXPECT_THROW((void)lm::nearest_rank_percentile({1.0}, 1.5),
                 leqa::util::InputError);
}

TEST(Stats, LinearFitRecoversLine) {
    std::vector<double> x, y;
    for (int i = 0; i < 20; ++i) {
        x.push_back(i);
        y.push_back(3.0 * i - 2.0);
    }
    const auto fit = lm::linear_fit(x, y);
    EXPECT_NEAR(fit.slope, 3.0, 1e-9);
    EXPECT_NEAR(fit.intercept, -2.0, 1e-9);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, PowerLawFitRecoversExponent) {
    // y = 2 x^1.5 -- the shape of the paper's QSPR runtime claim.
    std::vector<double> x, y;
    for (const double v : {10.0, 50.0, 200.0, 1000.0, 5000.0}) {
        x.push_back(v);
        y.push_back(2.0 * std::pow(v, 1.5));
    }
    const auto fit = lm::power_law_fit(x, y);
    EXPECT_NEAR(fit.exponent, 1.5, 1e-9);
    EXPECT_NEAR(fit.coefficient, 2.0, 1e-9);
    EXPECT_NEAR(lm::power_law_eval(fit, 100.0), 2.0 * std::pow(100.0, 1.5), 1e-6);
}

TEST(Stats, PowerLawFitRejectsNonPositive) {
    const std::vector<double> x{1.0, -2.0};
    const std::vector<double> y{1.0, 2.0};
    EXPECT_THROW((void)lm::power_law_fit(x, y), leqa::util::InputError);
}

// ---------------------------------------------------------------- gf2poly --

namespace {

/// Shift-and-add product and long division through the public primitives
/// only: an independent oracle for the word-level mulmod/mod.
lm::Gf2Poly reference_mulmod(const lm::Gf2Poly& a, const lm::Gf2Poly& b,
                             const lm::Gf2Poly& modulus) {
    lm::Gf2Poly product;
    for (const int e : a.exponents()) product ^= b.shifted(e);
    while (product.degree() >= modulus.degree()) {
        product ^= modulus.shifted(product.degree() - modulus.degree());
    }
    return product;
}

/// Random coefficients below \p max_degree; x^top too when top >= 0.
lm::Gf2Poly random_poly(leqa::util::Rng& rng, int max_degree, int top = -1) {
    lm::Gf2Poly p;
    for (int e = 0; e <= max_degree; ++e) {
        if (rng.chance(0.5)) p.set_coeff(e, true);
    }
    if (top >= 0) p.set_coeff(top, true);
    return p;
}

} // namespace

TEST(Gf2Poly, MulmodAndModMatchLongDivision) {
    leqa::util::Rng rng(0x6F2);
    const std::vector<lm::Gf2Poly> moduli = {
        lm::Gf2Poly::from_exponents({0}),                 // 1: everything reduces to 0
        lm::Gf2Poly::from_exponents({1}),                 // x
        lm::Gf2Poly::from_exponents({63, 1, 0}),          // top bit at a word edge
        lm::Gf2Poly::from_exponents({64, 4, 3, 1, 0}),    // one bit into word 1
        lm::Gf2Poly::from_exponents({256, 10, 5, 2, 0}),  // the gf2^256mult pentanomial
        random_poly(rng, 130, 131),                       // dense
    };
    for (const lm::Gf2Poly& modulus : moduli) {
        const int d = modulus.degree();
        for (int trial = 0; trial < 20; ++trial) {
            const lm::Gf2Poly a = random_poly(rng, 2 * d + 70);
            const lm::Gf2Poly b = random_poly(rng, d + 3);
            EXPECT_EQ(lm::Gf2Poly::mulmod(a, b, modulus), reference_mulmod(a, b, modulus))
                << "mod " << modulus.to_string();
            EXPECT_EQ(lm::Gf2Poly::mulmod(a, a, modulus), reference_mulmod(a, a, modulus))
                << "square mod " << modulus.to_string();
            EXPECT_EQ(a.mod(modulus), reference_mulmod(a, lm::Gf2Poly::monomial(0), modulus));
            EXPECT_LT(a.mod(modulus).degree(), d);
        }
    }
}

TEST(Gf2Poly, SuiteReductionPolynomialsArePinned) {
    // Middle terms of the reduction polynomial for every gf2^N suite
    // degree, recorded before the word-level arithmetic replaced the
    // bit-serial one: the search order, and so its answer, is unchanged.
    struct Pin {
        int n;
        std::vector<int> automatic;   // trinomial when one exists
        std::vector<int> pentanomial; // forced
    };
    const std::vector<Pin> pins = {
        {16, {5, 3, 1}, {5, 3, 1}},   {18, {3}, {5, 2, 1}},       {19, {5, 2, 1}, {5, 2, 1}},
        {20, {3}, {3, 2, 1}},         {50, {4, 3, 2}, {4, 3, 2}}, {64, {4, 3, 1}, {4, 3, 1}},
        {100, {15}, {6, 5, 2}},       {128, {7, 2, 1}, {7, 2, 1}},
        {256, {10, 5, 2}, {10, 5, 2}},
    };
    for (const Pin& pin : pins) {
        EXPECT_EQ(lm::irreducible_middle_terms(pin.n, false), pin.automatic) << "n=" << pin.n;
        EXPECT_EQ(lm::irreducible_middle_terms(pin.n, true), pin.pentanomial) << "n=" << pin.n;
    }
    EXPECT_EQ(lm::find_irreducible_trinomial(20), 3);
    EXPECT_FALSE(lm::find_irreducible_trinomial(256).has_value());
}
