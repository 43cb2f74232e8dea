#include "src/ckks/poly.h"

#include <algorithm>
#include <cstring>

#include "src/ckks/kernels.h"
#include "src/core/thread_pool.h"

namespace orion::ckks {

void
RnsPoly::count_acquire(core::ArenaAcquire how) const
{
    // Capacity reuse touches no allocator at all, so it counts as neither
    // an allocation nor a pool hit.
    if (how == core::ArenaAcquire::kReused) return;
    ctx_->counters().poly_alloc += 1;
    if (how == core::ArenaAcquire::kPool) {
        ctx_->counters().poly_arena_hit += 1;
    }
}

RnsPoly::RnsPoly(const Context& ctx, int level, bool extended, bool ntt_form)
    : ctx_(&ctx), level_(level), ntt_(ntt_form),
      special_limbs_(extended ? ctx.special_count() : 0)
{
    ORION_CHECK(level >= 0 && level <= ctx.max_level(),
                "level out of range: " << level);
    count_acquire(data_.acquire_zero(
        static_cast<std::size_t>(num_limbs()) * ctx.degree()));
}

RnsPoly::RnsPoly(const RnsPoly& o)
    : ctx_(o.ctx_), level_(o.level_), ntt_(o.ntt_),
      special_limbs_(o.special_limbs_)
{
    if (o.data_.empty()) return;  // invalid/default polys own no storage
    count_acquire(data_.copy_from(o.data_));
}

RnsPoly&
RnsPoly::operator=(const RnsPoly& o)
{
    if (this == &o) return *this;
    ctx_ = o.ctx_;
    level_ = o.level_;
    ntt_ = o.ntt_;
    special_limbs_ = o.special_limbs_;
    if (o.data_.empty()) {
        data_.release();
    } else {
        count_acquire(data_.copy_from(o.data_));
    }
    return *this;
}

void
RnsPoly::add_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_ &&
                 ntt_ == other.ntt_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.add_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::sub_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_ &&
                 ntt_ == other.ntt_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.sub_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::negate_inplace()
{
    const u64 n = degree();
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        u64* a = limb(i);
        for (u64 j = 0; j < n; ++j) a[j] = neg_mod(a[j], q);
    }
}

void
RnsPoly::mul_pointwise_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ntt_ && other.ntt_);
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.mul_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::add_product_inplace(const RnsPoly& b, const RnsPoly& c)
{
    ORION_ASSERT(ntt_ && b.ntt_ && c.ntt_);
    ORION_ASSERT(level_ == b.level_ && level_ == c.level_ &&
                 special_limbs_ == b.special_limbs_ &&
                 special_limbs_ == c.special_limbs_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.add_product_n(limb(i), b.limb(i), c.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::mul_scalar_inplace(const std::vector<u64>& scalar_per_limb)
{
    ORION_ASSERT(scalar_per_limb.size() >=
                 static_cast<std::size_t>(num_limbs()));
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        const u64 s = scalar_per_limb[static_cast<std::size_t>(i)];
        k.mul_scalar_shoup_n(limb(i), limb(i), n, s, shoup_precompute(s, q),
                             q);
    }
}

void
RnsPoly::mul_small_scalar_inplace(u64 scalar)
{
    std::vector<u64> per_limb(static_cast<std::size_t>(num_limbs()));
    for (int i = 0; i < num_limbs(); ++i) {
        per_limb[static_cast<std::size_t>(i)] =
            limb_modulus(i).reduce(scalar);
    }
    mul_scalar_inplace(per_limb);
}

void
RnsPoly::to_ntt()
{
    ORION_ASSERT(!ntt_);
    core::parallel_for(0, num_limbs(), [this](i64 i) {
        const int limb_idx = static_cast<int>(i);
        limb_tables(limb_idx).forward(limb(limb_idx));
    });
    ctx_->counters().ntt += static_cast<u64>(num_limbs());
    ntt_ = true;
}

void
RnsPoly::to_coeff()
{
    ORION_ASSERT(ntt_);
    core::parallel_for(0, num_limbs(), [this](i64 i) {
        const int limb_idx = static_cast<int>(i);
        limb_tables(limb_idx).inverse(limb(limb_idx));
    });
    ctx_->counters().ntt += static_cast<u64>(num_limbs());
    ntt_ = false;
}

std::vector<u32>
make_galois_ntt_permutation(const Context& ctx, u64 elt)
{
    // In NTT form, slot i stores the evaluation at psi^{2*rev(i)+1}. The
    // automorphism X -> X^elt maps the evaluation at root r to the
    // evaluation at r^elt, which is a pure permutation of the N points.
    const u64 n = ctx.degree();
    const int log_n = ctx.log_degree();
    const u64 m_mask = 2 * n - 1;
    std::vector<u32> perm(n);
    for (u64 i = 0; i < n; ++i) {
        const u64 rev = reverse_bits(static_cast<u32>(i), log_n);
        const u64 index_raw = (elt * (2 * rev + 1)) & m_mask;
        const u64 index =
            reverse_bits(static_cast<u32>((index_raw - 1) >> 1), log_n);
        perm[i] = static_cast<u32>(index);
    }
    return perm;
}

RnsPoly
RnsPoly::galois_with_permutation(const std::vector<u32>& perm) const
{
    ORION_ASSERT(ntt_);
    const u64 n = degree();
    RnsPoly out(*ctx_, level_, extended(), /*ntt_form=*/true);
    core::parallel_for(0, num_limbs(), [&](i64 i) {
        const u64* src = limb(static_cast<int>(i));
        u64* dst = out.limb(static_cast<int>(i));
        for (u64 j = 0; j < n; ++j) dst[j] = src[perm[j]];
    });
    return out;
}

RnsPoly
RnsPoly::galois(u64 elt) const
{
    const u64 n = degree();
    if (ntt_) {
        return galois_with_permutation(ctx_->galois_permutation(elt));
    }
    RnsPoly out(*ctx_, level_, extended(), /*ntt_form=*/false);
    const u64 m_mask = 2 * n - 1;
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        const u64* src = limb(i);
        u64* dst = out.limb(i);
        for (u64 j = 0; j < n; ++j) {
            // X^j -> X^{j*elt} = (+/-) X^{j*elt mod N}.
            const u64 raw = (j * elt) & m_mask;
            if (raw < n) {
                dst[raw] = src[j];
            } else {
                dst[raw - n] = neg_mod(src[j], q);
            }
        }
    }
    return out;
}

void
RnsPoly::rescale_drop_last()
{
    ORION_CHECK(!extended(), "cannot rescale an extended polynomial");
    ORION_CHECK(level_ >= 1, "cannot rescale at level 0");
    const u64 n = degree();
    const int last = level_;
    const Modulus& q_last = limb_modulus(last);

    // Bring the last limb to coefficient form for cross-modulus reduction.
    core::ScratchVec<u64> last_coeffs(n);
    std::memcpy(last_coeffs.data(), limb(last), n * sizeof(u64));
    if (ntt_) {
        limb_tables(last).inverse(last_coeffs.data());
        ctx_->counters().ntt += 1;
    }
    // Center so the rounding error is at most q_last/2 per coefficient.
    core::ScratchVec<i64> centered(n);
    for (u64 j = 0; j < n; ++j) {
        centered[j] = to_centered(last_coeffs[j], q_last);
    }

    core::parallel_for(0, last, [&](i64 li) {
        const int i = static_cast<int>(li);
        const Modulus& q = limb_modulus(i);
        core::ScratchVec<u64> tmp(n);
        for (u64 j = 0; j < n; ++j) {
            tmp[j] = reduce_signed(centered[j], q);
        }
        if (ntt_) {
            limb_tables(i).forward(tmp.data());
        }
        const u64 inv = ctx_->q_inv_mod(last, i);
        const u64 inv_shoup = shoup_precompute(inv, q);
        // Two whole-limb kernel passes; per element this is the same op
        // sequence as the fused mul_mod_shoup(sub_mod(...)) loop.
        const kernels::KernelTable& k = kernels::active();
        u64* a = limb(i);
        k.sub_mod_n(a, tmp.data(), n, q);
        k.mul_scalar_shoup_n(a, a, n, inv, inv_shoup, q);
    });
    if (ntt_) ctx_->counters().ntt += static_cast<u64>(last);

    data_.resize_down(static_cast<std::size_t>(last) * n);
    --level_;
}

void
RnsPoly::mod_down_special()
{
    ORION_CHECK(extended(), "mod_down_special requires special limbs");
    const Context::ModDownConsts& md = ctx_->mod_down_consts();
    const u64 n = degree();
    const int k = special_limbs_;
    const int first_special = level_ + 1;

    // lambda_i = [a]_{p_i} * (P/p_i)^{-1} mod p_i, in coefficient form,
    // written over the special limbs (they are dropped below). Then
    // [a]_P = sum_i lambda_i * (P/p_i) - u * P for an integer u in [0, k).
    core::ScratchVec<const u64*> lams(static_cast<std::size_t>(k) + 1);
    core::parallel_for(0, k, [&](i64 ii) {
        const int t = first_special + static_cast<int>(ii);
        u64* a = limb(t);
        if (ntt_) limb_tables(t).inverse(a);
        const auto i = static_cast<std::size_t>(ii);
        kernels::active().mul_scalar_shoup_n(a, a, n, md.hat_inv[i],
                                             md.hat_inv_shoup[i],
                                             limb_modulus(t));
        lams[i] = a;
    });
    if (ntt_) ctx_->counters().ntt += static_cast<u64>(k);

    // Centering: v = round(sum_i lambda_i / p_i) makes
    // sum_i lambda_i * (P/p_i) - v * P the representative of [a]_P in
    // (-P/2, P/2], so the result below is round(a / P). The sum is a
    // fraction plus an integer below k; its double error (~k * 2^-52)
    // only matters when the fraction sits on 1/2, where v may be off by
    // one. Computed once here, outside the ISA tables, so every limb and
    // every kernel table sees the same v.
    core::ScratchVec<u64> v(n);
    for (u64 x = 0; x < n; ++x) {
        double s = 0.5;
        for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
            // lambda_i < 2^61 fits an i64; the signed conversion is the
            // cheaper one.
            s += static_cast<double>(static_cast<i64>(lams[i][x])) *
                 md.p_recip[i];
        }
        v[x] = static_cast<u64>(static_cast<i64>(s));
    }
    lams[static_cast<std::size_t>(k)] = v.data();

    // For each q_j: conv_j = sum_i lambda_i * (P/p_i) - v * P mod q_j (v
    // rides base_conv_acc as one more row weighted by -P mod q_j), then
    // a_j = (a_j - conv_j) * P^{-1} mod q_j.
    core::parallel_for(0, first_special, [&](i64 ji) {
        const int j = static_cast<int>(ji);
        const auto js = static_cast<std::size_t>(j);
        const Modulus& q = limb_modulus(j);
        const kernels::KernelTable& kt = kernels::active();
        core::ScratchVec<u64> conv(n);
        kt.base_conv_acc(conv.data(), lams.data(), md.hats[js].data(), k + 1,
                         n, q);
        if (ntt_) limb_tables(j).forward(conv.data());
        u64* a = limb(j);
        kt.sub_mod_n(a, conv.data(), n, q);
        kt.mul_scalar_shoup_n(a, a, n, md.p_inv[js], md.p_inv_shoup[js], q);
    });
    if (ntt_) ctx_->counters().ntt += static_cast<u64>(first_special);

    data_.resize_down(static_cast<std::size_t>(first_special) * n);
    special_limbs_ = 0;
}

void
RnsPoly::drop_to_level(int new_level)
{
    ORION_CHECK(!extended(), "cannot drop levels on an extended polynomial");
    ORION_CHECK(new_level >= 0 && new_level <= level_,
                "invalid target level " << new_level << " from " << level_);
    data_.resize_down(static_cast<std::size_t>(new_level + 1) * degree());
    level_ = new_level;
}

RnsPoly
RnsPoly::mod_raise(int new_level) const
{
    ORION_CHECK(!extended(), "cannot mod-raise an extended polynomial");
    ORION_CHECK(level_ == 0,
                "mod_raise expects a level-0 polynomial (drop first), got "
                    << level_);
    ORION_CHECK(new_level >= 1 && new_level <= ctx_->max_level(),
                "invalid mod-raise target level " << new_level);
    const u64 n = degree();

    RnsPoly base = *this;
    if (base.is_ntt()) base.to_coeff();
    const Modulus& q0 = ctx_->q(0);
    core::ScratchVec<i64> centered(n);
    const u64* src = base.limb(0);
    for (u64 j = 0; j < n; ++j) centered[j] = to_centered(src[j], q0);

    RnsPoly out(*ctx_, new_level, /*extended=*/false, /*ntt_form=*/false);
    // Each target limb is an independent signed reduction of the centered
    // coefficients; fan them out across the pool (bit-identical at any
    // thread count: no cross-limb reads).
    core::parallel_for(0, out.num_limbs(), [&](i64 li) {
        const int i = static_cast<int>(li);
        const Modulus& q = out.limb_modulus(i);
        u64* dst = out.limb(i);
        for (u64 j = 0; j < n; ++j) dst[j] = reduce_signed(centered[j], q);
    });
    if (is_ntt()) out.to_ntt();
    return out;
}

bool
RnsPoly::is_zero() const
{
    const u64* p = data_.data();
    return std::all_of(p, p + data_.size(), [](u64 v) { return v == 0; });
}

}  // namespace orion::ckks
