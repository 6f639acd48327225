#include "mathx/gf2poly.h"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>

#include "util/error.h"
#include "util/thread_annotations.h"

namespace leqa::mathx {

namespace {
constexpr int kWordBits = 64;

std::vector<int> prime_factors(int n) {
    std::vector<int> factors;
    for (int p = 2; p * p <= n; ++p) {
        if (n % p == 0) {
            factors.push_back(p);
            while (n % p == 0) n /= p;
        }
    }
    if (n > 1) factors.push_back(n);
    return factors;
}
} // namespace

Gf2Poly Gf2Poly::monomial(int exponent) {
    LEQA_REQUIRE(exponent >= 0, "monomial exponent must be non-negative");
    Gf2Poly p;
    p.set_coeff(exponent, true);
    return p;
}

Gf2Poly Gf2Poly::from_exponents(const std::vector<int>& exponents) {
    Gf2Poly p;
    for (const int e : exponents) p.set_coeff(e, !p.coeff(e));
    return p;
}

int Gf2Poly::degree() const {
    for (std::size_t w = words_.size(); w > 0; --w) {
        const std::uint64_t word = words_[w - 1];
        if (word != 0) {
            return static_cast<int>((w - 1) * kWordBits) + (63 - std::countl_zero(word));
        }
    }
    return -1;
}

bool Gf2Poly::coeff(int exponent) const {
    LEQA_REQUIRE(exponent >= 0, "exponent must be non-negative");
    const auto word = static_cast<std::size_t>(exponent) / kWordBits;
    if (word >= words_.size()) return false;
    return ((words_[word] >> (exponent % kWordBits)) & 1ULL) != 0;
}

void Gf2Poly::set_coeff(int exponent, bool value) {
    LEQA_REQUIRE(exponent >= 0, "exponent must be non-negative");
    const auto word = static_cast<std::size_t>(exponent) / kWordBits;
    if (word >= words_.size()) {
        if (!value) return;
        words_.resize(word + 1, 0);
    }
    const std::uint64_t mask = 1ULL << (exponent % kWordBits);
    if (value) {
        words_[word] |= mask;
    } else {
        words_[word] &= ~mask;
    }
    trim();
}

std::vector<int> Gf2Poly::exponents() const {
    std::vector<int> out;
    for (int e = degree(); e >= 0; --e) {
        if (coeff(e)) out.push_back(e);
    }
    return out;
}

void Gf2Poly::operator^=(const Gf2Poly& other) {
    if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
    for (std::size_t w = 0; w < other.words_.size(); ++w) words_[w] ^= other.words_[w];
    trim();
}

bool Gf2Poly::operator==(const Gf2Poly& other) const {
    const std::size_t common = std::min(words_.size(), other.words_.size());
    for (std::size_t w = 0; w < common; ++w) {
        if (words_[w] != other.words_[w]) return false;
    }
    for (std::size_t w = common; w < words_.size(); ++w) {
        if (words_[w] != 0) return false;
    }
    for (std::size_t w = common; w < other.words_.size(); ++w) {
        if (other.words_[w] != 0) return false;
    }
    return true;
}

Gf2Poly Gf2Poly::shifted(int k) const {
    LEQA_REQUIRE(k >= 0, "shift must be non-negative");
    if (is_zero() || k == 0) {
        Gf2Poly copy = *this;
        return copy;
    }
    Gf2Poly out;
    const int word_shift = k / kWordBits;
    const int bit_shift = k % kWordBits;
    out.words_.assign(words_.size() + static_cast<std::size_t>(word_shift) + 1, 0);
    for (std::size_t w = 0; w < words_.size(); ++w) {
        out.words_[w + word_shift] |= words_[w] << bit_shift;
        if (bit_shift != 0) {
            out.words_[w + word_shift + 1] |= words_[w] >> (kWordBits - bit_shift);
        }
    }
    out.trim();
    return out;
}

namespace {

/// Degree of the polynomial held in \p words, counting only bits at or
/// below \p from_bit; -1 when those bits are all zero.
int degree_below(const std::uint64_t* words, int from_bit) {
    if (from_bit < 0) return -1;
    for (int w = from_bit / kWordBits; w >= 0; --w) {
        std::uint64_t word = words[w];
        if (w == from_bit / kWordBits && from_bit % kWordBits != kWordBits - 1) {
            word &= (2ULL << (from_bit % kWordBits)) - 1; // bits at or below from_bit
        }
        if (word != 0) return w * kWordBits + (63 - std::countl_zero(word));
    }
    return -1;
}

/// words ^= value * x^shift, for words[0, size) (bits past the end drop).
void xor_shifted(std::uint64_t* words, std::size_t size, std::uint64_t value, int shift) {
    const auto word = static_cast<std::size_t>(shift / kWordBits);
    const int bit = shift % kWordBits;
    if (word < size) words[word] ^= value << bit;
    if (bit != 0 && word + 1 < size) words[word + 1] ^= value >> (kWordBits - bit);
}

/// Reduce words[0, size) modulo the polynomial \p modulus of degree \p d,
/// in place and without allocating.  Each step clears the top (up to 64)
/// bits at or above x^d as one chunk c and adds c * x^(shift - d) times
/// the modulus' lower terms, which only touches bits below the chunk.
void reduce(std::uint64_t* words, std::size_t size, const std::vector<std::uint64_t>& modulus,
            int d) {
    int deg = degree_below(words, static_cast<int>(size) * kWordBits - 1);
    while (deg >= d) {
        const int low = std::max(d, deg - (kWordBits - 1));
        const auto w = static_cast<std::size_t>(low / kWordBits);
        const int bit = low % kWordBits;
        // Bits above deg are zero, so the chunk holds exactly [low, deg].
        std::uint64_t chunk = words[w] >> bit;
        if (bit != 0 && w + 1 < size) chunk |= words[w + 1] << (kWordBits - bit);
        xor_shifted(words, size, chunk, low);
        for (std::size_t mw = 0; mw < modulus.size(); ++mw) {
            for (std::uint64_t bits = modulus[mw]; bits != 0; bits &= bits - 1) {
                const int e = static_cast<int>(mw) * kWordBits + std::countr_zero(bits);
                if (e < d) xor_shifted(words, size, chunk, low - d + e);
            }
        }
        deg = degree_below(words, deg);
    }
}

/// The square of a 32-bit polynomial: bit i moves to bit 2i.
std::uint64_t spread_bits(std::uint32_t half) {
    std::uint64_t v = half;
    v = (v | (v << 16)) & 0x0000FFFF0000FFFFULL;
    v = (v | (v << 8)) & 0x00FF00FF00FF00FFULL;
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0FULL;
    v = (v | (v << 2)) & 0x3333333333333333ULL;
    v = (v | (v << 1)) & 0x5555555555555555ULL;
    return v;
}

} // namespace

Gf2Poly Gf2Poly::mod(const Gf2Poly& modulus) const {
    LEQA_REQUIRE(!modulus.is_zero(), "modulus must be non-zero");
    Gf2Poly remainder = *this;
    reduce(remainder.words_.data(), remainder.words_.size(), modulus.words_, modulus.degree());
    remainder.trim();
    return remainder;
}

Gf2Poly Gf2Poly::mulmod(const Gf2Poly& a, const Gf2Poly& b, const Gf2Poly& modulus) {
    LEQA_REQUIRE(!modulus.is_zero(), "modulus must be non-zero");
    const Gf2Poly a_reduced = a.mod(modulus);
    const Gf2Poly b_reduced = b.mod(modulus);
    const std::vector<std::uint64_t>& x = a_reduced.words_;
    const std::vector<std::uint64_t>& y = b_reduced.words_;

    // Carry-less product into one buffer, then one in-place reduction.
    Gf2Poly result;
    std::vector<std::uint64_t>& product = result.words_;
    product.assign(x.size() + y.size(), 0);
    if (x == y) {
        // Squaring over GF(2) is linear: spread every bit to twice its index.
        // is_irreducible only squares; with shift-and-xor alone a cold
        // irreducible_middle_terms(256, true) took 33-66 ms against 6-7 ms
        // this way (Release, shared 4-vCPU VM).
        for (std::size_t w = 0; w < x.size(); ++w) {
            product[2 * w] = spread_bits(static_cast<std::uint32_t>(x[w]));
            product[2 * w + 1] = spread_bits(static_cast<std::uint32_t>(x[w] >> 32));
        }
    } else {
        for (std::size_t w = 0; w < x.size(); ++w) {
            for (std::uint64_t bits = x[w]; bits != 0; bits &= bits - 1) {
                const int shift = static_cast<int>(w) * kWordBits + std::countr_zero(bits);
                for (std::size_t v = 0; v < y.size(); ++v) {
                    xor_shifted(product.data(), product.size(), y[v],
                                shift + static_cast<int>(v) * kWordBits);
                }
            }
        }
    }
    reduce(product.data(), product.size(), modulus.words_, modulus.degree());
    result.trim();
    return result;
}

Gf2Poly Gf2Poly::gcd(Gf2Poly a, Gf2Poly b) {
    while (!b.is_zero()) {
        Gf2Poly r = a.mod(b);
        a = b;
        b = r;
    }
    return a;
}

std::string Gf2Poly::to_string() const {
    if (is_zero()) return "0";
    std::ostringstream out;
    bool first = true;
    for (const int e : exponents()) {
        if (!first) out << " + ";
        if (e == 0) out << "1";
        else if (e == 1) out << "x";
        else out << "x^" << e;
        first = false;
    }
    return out.str();
}

void Gf2Poly::trim() {
    while (!words_.empty() && words_.back() == 0) words_.pop_back();
}

bool is_irreducible(const Gf2Poly& p) {
    const int n = p.degree();
    if (n <= 0) return false;
    if (n == 1) return true;
    if (!p.coeff(0)) return false; // divisible by x

    const Gf2Poly x = Gf2Poly::monomial(1);

    // x^(2^n) mod p must equal x.
    Gf2Poly cur = x;
    for (int i = 0; i < n; ++i) cur = Gf2Poly::mulmod(cur, cur, p);
    if (!(cur == x.mod(p))) return false;

    // For each prime divisor d of n: gcd(x^(2^(n/d)) - x, p) must be 1.
    for (const int d : prime_factors(n)) {
        Gf2Poly h = x;
        for (int i = 0; i < n / d; ++i) h = Gf2Poly::mulmod(h, h, p);
        h ^= x;
        const Gf2Poly g = Gf2Poly::gcd(h.mod(p), p);
        if (g.degree() != 0) return false;
    }
    return true;
}

std::optional<int> find_irreducible_trinomial(int n) {
    LEQA_REQUIRE(n >= 2, "degree must be >= 2");
    for (int t = 1; t < n; ++t) {
        if (is_irreducible(Gf2Poly::from_exponents({n, t, 0}))) return t;
    }
    return std::nullopt;
}

std::optional<std::vector<int>> find_irreducible_pentanomial(int n) {
    LEQA_REQUIRE(n >= 4, "degree must be >= 4");
    for (int t3 = 3; t3 < n; ++t3) {
        for (int t2 = 2; t2 < t3; ++t2) {
            for (int t1 = 1; t1 < t2; ++t1) {
                if (is_irreducible(Gf2Poly::from_exponents({n, t3, t2, t1, 0}))) {
                    return std::vector<int>{t3, t2, t1};
                }
            }
        }
    }
    return std::nullopt;
}

std::vector<int> irreducible_middle_terms(int n, bool force_pentanomial) {
    // The memo is process-wide shared state; a struct (rather than two
    // bare statics) lets the capability analysis tie the map to its mutex.
    struct TermCache {
        util::Mutex mutex;
        std::map<std::pair<int, bool>, std::vector<int>> terms
            LEQA_GUARDED_BY(mutex);
    };
    static TermCache cache;
    {
        const util::MutexLock lock(cache.mutex);
        const auto it = cache.terms.find({n, force_pentanomial});
        if (it != cache.terms.end()) return it->second;
    }

    std::vector<int> terms;
    if (!force_pentanomial) {
        if (const auto t = find_irreducible_trinomial(n)) {
            terms = {*t};
        }
    }
    if (terms.empty()) {
        const auto penta = find_irreducible_pentanomial(n);
        LEQA_REQUIRE(penta.has_value(),
                     "no irreducible trinomial/pentanomial of degree " + std::to_string(n));
        terms = *penta;
    }

    const util::MutexLock lock(cache.mutex);
    cache.terms[{n, force_pentanomial}] = terms;
    return terms;
}

} // namespace leqa::mathx
