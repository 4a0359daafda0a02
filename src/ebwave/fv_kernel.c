/* The finite-volume rate of ebwave's shallow-water half step.

   fv_rate computes -(F_{i+1/2} - F_{i-1/2})/dx of the periodic fields
   zeta and v from limited fifth-order faces and the Rusanov flux, in
   blocks of FV_BLOCK cells whose scratch lives on the stack. Every scalar
   operation is one of the numpy formulas that ``hyperbolic`` documents, in
   the same order, so the result does not depend on the block width.
   Compile with -ffp-contract=off and without -ffast-math: a fused
   multiply-add or a reassociated sum changes the bits.

   fv_faces and fv_flux are the two stages of fv_rate, exported so that
   the tests and the self-test can drive each one alone. */

#include <math.h>

enum { BLOCK = 1024 };        /* cells per block of fv_rate */
const long FV_BLOCK = BLOCK;

/* numpy.sign, but 0 for NaN: a NaN difference makes both deltas of its
   cell NaN, and so its faces, whatever its sign. Two selects of constants
   vectorize where numpy's three-way one does not. */
static inline double sgn(double d)
{
    return (d > 0.0 ? 1.0 : 0.0) - (d < 0.0 ? 1.0 : 0.0);
}

/* min(a, b) where only b may be NaN, which it then returns */
static inline double min2(double a, double b)
{
    return a < b ? a : b;
}

/* Limited right and left faces of the m cells p[2 .. m+1] of a window p
   of m + 4 cells. */
void fv_faces(const double *restrict p, long m,
              double *restrict right, double *restrict left)
{
    for (long j = 0; j < m; j++) {
        double um2 = p[j], um1 = p[j + 1], u0 = p[j + 2];
        double up1 = p[j + 3], up2 = p[j + 4];
        double down = u0 - um1, up = up1 - u0;
        /* the third differences starting at cells i and i-1 */
        double fwd3 = ((3.0 * u0 - um1) - 3.0 * up1) + up2;
        double bwd3 = ((3.0 * um1 - um2) - 3.0 * u0) + up1;
        double plus = ((up * (2.0 / 3.0) + down * (1.0 / 3.0)) - fwd3 * 0.1) - bwd3 / 15.0;
        double minus = ((down * (2.0 / 3.0) + up * (1.0 / 3.0)) - bwd3 * 0.1) - fwd3 / 15.0;
        double sign_down = sgn(down), sign_up = sgn(up);
        double cap = min2(fabs(down) * 2.0, fabs(up) * 2.0);
        /* 1 where both signs agree and are nonzero, 0 else, NaN kept */
        double agreement = sign_down * sign_up;
        agreement = agreement < 0.0 ? 0.0 : agreement;
        double slope_right = min2(cap, fabs(plus)) * (sign_down * 0.5) * agreement + 0.0;
        double slope_left = min2(cap, fabs(minus)) * (sign_up * 0.5) * agreement + 0.0;
        right[j] = slope_right + u0;
        left[j] = u0 - slope_left;
    }
}

/* Rusanov flux of k interfaces between the left states (zeta_l, v_l) and
   the right ones (zeta_r, v_r) into flux_zeta and flux_v. Returns 1 if
   h <= 0 on a side of one of them, else 0; a NaN h is not dry. */
int fv_flux(const double *restrict zeta_l, const double *restrict v_l,
            const double *restrict zeta_r, const double *restrict v_r, long k,
            double eps, double g, double depth,
            double *restrict flux_zeta, double *restrict flux_v)
{
    double half_eps = 0.5 * eps;
    int dry = 0;
    for (long i = 0; i < k; i++) {
        double zl = zeta_l[i], vl = v_l[i], zr = zeta_r[i], vr = v_r[i];
        double h_l = zl * eps + depth, h_r = zr * eps + depth;
        dry |= (h_l <= 0.0) | (h_r <= 0.0);
        double s = fabs(vl * eps) + sqrt(h_l * g);
        double a = fabs(vr * eps) + sqrt(h_r * g);
        s = (s < a ? a : s) * 0.5;
        flux_zeta[i] = (h_l * vl + h_r * vr) * 0.5 - (zr - zl) * s;
        double f2_l = vl * half_eps * vl + zl * g;
        double f2_r = vr * half_eps * vr + zr * g;
        flux_v[i] = (f2_l + f2_r) * 0.5 - (vr - vl) * s;
    }
    return dry;
}

/* The window of cells first .. first + len - 1 of the periodic field u of
   n cells: u itself where it holds them in order, else a copy in buf. */
static const double *window(const double *u, long n, long first, long len, double *buf)
{
    if (first >= 0 && first + len <= n)
        return u + first;
    long c = ((first % n) + n) % n;
    for (long j = 0; j < len; j++) {
        buf[j] = u[c];
        c = c + 1 == n ? 0 : c + 1;
    }
    return buf;
}

/* The rate of the n-cell fields zeta and v into rate[0 .. n-1] (zeta)
   and rate[n .. 2n-1] (v). Returns 1 if a face is dry, else 0. */
int fv_rate(const double *zeta, const double *v, long n,
            double eps, double g, double depth, double dx, double *rate)
{
    double buf[2][BLOCK + 6], right[2][BLOCK + 2], left[2][BLOCK + 2];
    double flux_zeta[BLOCK + 1], flux_v[BLOCK + 1];
    const double *fields[2] = {zeta, v};
    double minus_dx = -dx;
    int dry = 0;
    for (long start = 0; start < n; start += BLOCK) {
        long width = n - start < BLOCK ? n - start : BLOCK;
        /* faces of cells start-1 .. start+width, which read the cells
           start-3 .. start+width+2 */
        for (int f = 0; f < 2; f++)
            fv_faces(window(fields[f], n, start - 3, width + 6, buf[f]),
                     width + 2, right[f], left[f]);
        /* interface i+1/2 joins the right face of cell i to the left one
           of cell i+1, for i = start-1 .. start+width-1 */
        dry |= fv_flux(right[0], right[1], left[0] + 1, left[1] + 1, width + 1,
                       eps, g, depth, flux_zeta, flux_v);
        double *rate_zeta = rate + start, *rate_v = rate + n + start;
        for (long i = 0; i < width; i++) {
            rate_zeta[i] = (flux_zeta[i + 1] - flux_zeta[i]) / minus_dx;
            rate_v[i] = (flux_v[i + 1] - flux_v[i]) / minus_dx;
        }
    }
    return dry;
}
