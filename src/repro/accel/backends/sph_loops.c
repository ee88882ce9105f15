/* Compiled SPH pair loops of the numpy backend (repro.accel.backends.compiled).
 *
 * Each loop repeats the numpy reference's operations in the reference's
 * order, so on equal inputs it returns the same bits:
 *
 *   - the cubic spline w(q) and dw(q) are the branch-free forms of
 *     repro.sph.kernels.CubicSpline, the outer piece selected at q >= 0.5;
 *   - grad_factor is SPHKernel.grad_factor, its r clamped with
 *     max(r, 1e-12 * max(h, 1e-300));
 *   - every np.bincount becomes a sequential sum, from the caller's zeros,
 *     in list order;
 *   - np.maximum / np.minimum propagate NaN (C's fmax/fmin do not).
 *
 * Build with -O2 -ffp-contract=off and never with -ffast-math: a contracted
 * multiply-add or a reassociated sum changes the bits.  Index arrays are
 * int64, masks are numpy bools (one byte, 0 or 1).
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef int64_t idx_t;

/* np.maximum / np.minimum of two doubles: NaN in either gives NaN. */
static inline double np_max(double a, double b) { return (a >= b || isnan(a)) ? a : b; }
static inline double np_min(double a, double b) { return (a <= b || isnan(a)) ? a : b; }

/* CubicSpline.w: 2 (1 - q)^3 for q >= 0.5, else 1 - 6 q^2 (1 - q). */
static inline double cubic_w(double q)
{
    double t = np_max(1.0 - q, 0.0);
    double outer = t * t;
    outer *= t;
    outer *= 2.0;
    double inner = t * q;
    inner *= q;
    inner *= -6.0;
    inner += 1.0;
    return q >= 0.5 ? outer : inner;
}

/* CubicSpline.dw: -6 (1 - q)^2 for q >= 0.5, else q (18 q - 12). */
static inline double cubic_dw(double q)
{
    double t = np_max(1.0 - q, 0.0);
    double outer = t * t;
    outer *= -6.0;
    double inner = q * 18.0;
    inner -= 12.0;
    inner *= q;
    return q >= 0.5 ? outer : inner;
}

/* SPHKernel.grad_factor: (1/r) dW/dr = sigma dw(q) / (h^4 r), r clamped. */
static inline double grad_factor(double r, double h, double sigma)
{
    double out = cubic_dw(np_min(r / h, 1.0));
    out *= sigma;
    double den = h * h;
    den *= den;
    den = den * np_max(r, 1e-12 * np_max(h, 1e-300));
    return out / den;
}

int sph_loops_abi(void) { return 2; }

/* Candidate entries are cut in chunks of CHUNK: first the chunk's kept
 * entries are listed without a branch (a cut that keeps ~30% of a reach
 * list would mispredict on most entries), then only they are worked on, in
 * list order. */
#define CHUNK 256

/* Lists in keep[] the entries k of [k0, k1) of one candidate block that are
 * live (alive NULL: every one), of a kept target (targets NULL: every one)
 * and inside their target's support, r < h[i]; returns how many. */
static inline idx_t cut(idx_t k0, idx_t k1, const idx_t *i, const double *r,
                        const uint8_t *alive, const uint8_t *targets, const double *h,
                        idx_t *keep)
{
    idx_t m = 0;
    for (idx_t k = k0; k < k1; ++k) {
        idx_t a = i[k];
        int in = r[k] < h[a];
        if (alive != NULL)
            in &= alive[k];
        if (targets != NULL)
            in &= targets[a];
        keep[m] = k;
        m += in;
    }
    return m;
}

/* The weight sweep: out[i] += w(r / h[i]) over the entries of one
 * candidate block that cut() keeps. */
void sph_profile_sum(idx_t n, const idx_t *i, const double *r, const uint8_t *alive,
                     const uint8_t *targets, const double *h, double *out)
{
    idx_t keep[CHUNK];
    for (idx_t k0 = 0; k0 < n; k0 += CHUNK) {
        idx_t m = cut(k0, k0 + CHUNK < n ? k0 + CHUNK : n, i, r, alive, targets, h, keep);
        for (idx_t t = 0; t < m; ++t) {
            idx_t k = keep[t], a = i[k];
            out[a] += cubic_w(r[k] / h[a]);
        }
    }
}

/* The number of live entries of one candidate block with r < h[i]. */
idx_t sph_gather_count(idx_t n, const idx_t *i, const double *r, const uint8_t *alive,
                       const double *h)
{
    idx_t keep[CHUNK], total = 0;
    for (idx_t k0 = 0; k0 < n; k0 += CHUNK)
        total += cut(k0, k0 + CHUNK < n ? k0 + CHUNK : n, i, r, alive, NULL, h, keep);
    return total;
}

/* The finalize: copy the live entries of one candidate block with r < h[i]
 * to (gi, gj, gr), in order, and add their sums: wsum[i] += m_j w(q),
 * dwsum[i] += q dw(q) m_j + 3 m_j w(q), counts[i] += 1.
 * Returns the number of entries copied. */
idx_t sph_gather(idx_t n, const idx_t *i, const idx_t *j, const double *r,
                 const uint8_t *alive, const double *h, const double *mass,
                 idx_t *gi, idx_t *gj, double *gr,
                 double *wsum, double *dwsum, int64_t *counts)
{
    idx_t keep[CHUNK], total = 0;
    for (idx_t k0 = 0; k0 < n; k0 += CHUNK) {
        idx_t m = cut(k0, k0 + CHUNK < n ? k0 + CHUNK : n, i, r, alive, NULL, h, keep);
        for (idx_t t = 0; t < m; ++t, ++total) {
            idx_t k = keep[t], a = i[k];
            gi[total] = a;
            gj[total] = j[k];
            gr[total] = r[k];
            double q = r[k] / h[a];
            double m_j = mass[j[k]];
            double w = cubic_w(q);
            w *= m_j;
            double dwdh = cubic_dw(q);
            dwdh *= q;
            dwdh *= m_j;
            dwdh += 3.0 * w;
            wsum[a] += w;
            dwsum[a] += dwdh;
            counts[a] += 1;
        }
    }
    return total;
}

/* Whether pair k's ends are particles 0 .. n_particles - 1. */
static inline int ends_inside(idx_t a, idx_t b, idx_t n_particles)
{
    return (uint64_t)a < (uint64_t)n_particles && (uint64_t)b < (uint64_t)n_particles;
}

/* The velocity estimators over a gather list: with the weight
 * m_j grad_factor(r, h_i), div[i] += (v_ij . r_ij) wgt and
 * (cx, cy, cz)[i] += (v_ij x r_ij) wgt.  Returns -1, or the first pair
 * with an end outside the n_particles (its sums then stop there). */
idx_t sph_velocity_sums(idx_t n, idx_t n_particles, const idx_t *i, const idx_t *j,
                        const double *r, const double *pos, const double *vel,
                        const double *mass, const double *h, double sigma,
                        double *div, double *cx, double *cy, double *cz)
{
    for (idx_t k = 0; k < n; ++k) {
        idx_t a = i[k], b = j[k];
        if (!ends_inside(a, b, n_particles))
            return k;
        double wgt = grad_factor(r[k], h[a], sigma);
        wgt *= mass[b];
        double dx = pos[3 * a] - pos[3 * b];
        double dy = pos[3 * a + 1] - pos[3 * b + 1];
        double dz = pos[3 * a + 2] - pos[3 * b + 2];
        double vx = vel[3 * a] - vel[3 * b];
        double vy = vel[3 * a + 1] - vel[3 * b + 1];
        double vz = vel[3 * a + 2] - vel[3 * b + 2];
        div[a] += (vx * dx + vy * dy + vz * dz) * wgt;
        cx[a] += (vy * dz - vz * dy) * wgt;
        cy[a] += (vz * dx - vx * dz) * wgt;
        cz[a] += (vx * dy - vy * dx) * wgt;
    }
    return -1;
}

/* The half-pair hydro force over (i, j, r).  half_* are the per-particle
 * halves the pair means add (0.5 h, 0.5 csnd, 0.5 rho, 0.5 balsara; the
 * last NULL without the switch), p_term is P / (Omega rho^2).  acc (n, 3),
 * du_i and du_j start at zero, vsig at csnd; scratch holds 2 n doubles.
 * acc sums every i end, then every j end (the concatenated bincount of
 * NumpyBackend._scatter_add_pairs); du_i and du_j are the two energy sums;
 * vsig takes the pair's signal velocity at every i end, then every j end
 * (np.maximum.at twice).  Returns -1, or the first pair with an end
 * outside the n_particles (the sums then stop there). */
idx_t sph_hydro_force(idx_t n, idx_t n_particles, const idx_t *i, const idx_t *j, const double *r,
                     const double *pos, const double *vel, const double *mass,
                     const double *h, const double *csnd, const double *p_term,
                     const double *half_h, const double *half_c, const double *half_rho,
                     const double *half_bal, double alpha, double beta, double sigma,
                     double *acc, double *du_i, double *du_j, double *vsig,
                     double *scratch)
{
    double *scal_of = scratch, *vsig_of = scratch + n;
    for (idx_t k = 0; k < n; ++k) {
        idx_t a = i[k], b = j[k];
        if (!ends_inside(a, b, n_particles))
            return k;
        double rk = r[k];
        double dx = pos[3 * a] - pos[3 * b];
        double dy = pos[3 * a + 1] - pos[3 * b + 1];
        double dz = pos[3 * a + 2] - pos[3 * b + 2];
        double vdotr = (vel[3 * a] - vel[3 * b]) * dx;
        vdotr += (vel[3 * a + 1] - vel[3 * b + 1]) * dy;
        vdotr += (vel[3 * a + 2] - vel[3 * b + 2]) * dz;
        double gf_i = grad_factor(rk, h[a], sigma);
        double gf_j = grad_factor(rk, h[b], sigma);

        double h_bar = half_h[a] + half_h[b];
        double mu = h_bar * vdotr / (rk * rk + 0.01 * (h_bar * h_bar));
        mu = vdotr < 0.0 ? mu : 0.0;
        double visc = (beta * mu - alpha * (half_c[a] + half_c[b])) * mu
                      / (half_rho[a] + half_rho[b]);
        if (half_bal != NULL)
            visc *= half_bal[a] + half_bal[b];
        double visc_gf = 0.5 * (gf_i + gf_j);
        visc_gf *= visc;

        double pg_i = p_term[a] * gf_i;
        double pg_j = p_term[b] * gf_j;
        double scal = pg_i + pg_j;
        scal += visc_gf;
        double w_i = -mass[b] * scal;
        acc[3 * a] += w_i * dx;
        acc[3 * a + 1] += w_i * dy;
        acc[3 * a + 2] += w_i * dz;

        visc_gf *= 0.5;
        du_i[a] += mass[b] * vdotr * (pg_i + visc_gf);
        du_j[b] += mass[a] * vdotr * (pg_j + visc_gf);

        double w_rel = rk > 0 ? vdotr / np_max(rk, 1e-300) : 0.0;
        double vsig_pair = csnd[a] + csnd[b] - 3.0 * np_min(w_rel, 0.0);
        vsig[a] = np_max(vsig[a], vsig_pair);
        scal_of[k] = scal;
        vsig_of[k] = vsig_pair;
    }
    for (idx_t k = 0; k < n; ++k) {
        idx_t a = i[k], b = j[k];
        double w_j = mass[a] * scal_of[k];
        acc[3 * b] += w_j * (pos[3 * a] - pos[3 * b]);
        acc[3 * b + 1] += w_j * (pos[3 * a + 1] - pos[3 * b + 1]);
        acc[3 * b + 2] += w_j * (pos[3 * a + 2] - pos[3 * b + 2]);
        vsig[b] = np_max(vsig[b], vsig_of[k]);
    }
    return -1;
}
