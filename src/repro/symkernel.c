/*
 * Fused symmetric partition kernel (paper Alg. 3): one pass over rows
 * [row_lo, row_lo + n_rows). Row row_lo + i holds elements indptr[i] <=
 * p < indptr[i + 1] in columns col_base + indices[p], all inside the
 * window [col_lo, col_lo + n_cols). Vectors are row-major (n, k).
 *
 * Order, per column of x (the bit contract, see DESIGN.md §2): the
 * diagonal products over [d_lo, d_hi); each row summed from zero in
 * stored order, then added to y_direct; with sym, the transposed writes
 * summed in stored order in a zeroed scratch over the column window,
 * then added to y_local below split and to y_direct from it. y_direct
 * and y_local may alias (disjoint rows). The caller checks every length.
 */
#include <stdint.h>
#include <stdlib.h>

static inline __attribute__((always_inline)) int
product(const int sym, const int64_t k, int64_t row_lo, int64_t n_rows,
        const int32_t *indptr, const int32_t *indices, const double *data,
        int64_t col_base, int64_t col_lo, int64_t n_cols,
        const double *diag, int64_t d_lo, int64_t d_hi, const double *x,
        double *y_direct, double *y_local, int64_t split)
{
    const int64_t off = col_base - col_lo;
    double *w = NULL, *s;
    int64_t i, j, p;

    for (i = d_lo; i < d_hi; i++)
        for (j = 0; j < k; j++)
            y_direct[i * k + j] += diag[i] * x[i * k + j];
    if (n_rows == 0 || indptr[0] == indptr[n_rows])
        return 0;
    /* Two allocations: the row sums never alias the scratch, so the
     * compiler keeps them in registers. */
    s = malloc((size_t)k * sizeof(double));
    if (sym)
        w = calloc((size_t)(n_cols * k), sizeof(double));
    if (s == NULL || (sym && w == NULL)) {
        free(s);
        free(w);
        return -1;
    }
    for (i = 0; i < n_rows; i++) {
        const double *xr = x + (row_lo + i) * k;
        for (j = 0; j < k; j++)
            s[j] = 0.0;
        for (p = indptr[i]; p < indptr[i + 1]; p++) {
            const double v = data[p];
            const double *xc = x + (col_base + indices[p]) * k;
            for (j = 0; j < k; j++)
                s[j] += v * xc[j];
            for (j = 0; sym && j < k; j++)
                w[(indices[p] + off) * k + j] += v * xr[j];
        }
        for (j = 0; j < k; j++)
            y_direct[(row_lo + i) * k + j] += s[j];
    }
    for (i = 0; sym && i < n_cols; i++) {
        double *t = col_lo + i < split ? y_local : y_direct;
        for (j = 0; j < k; j++)
            t[(col_lo + i) * k + j] += w[i * k + j];
    }
    free(s);
    free(w);
    return 0;
}

#define ARGS int64_t row_lo, int64_t n_rows, const int32_t *indptr, \
    const int32_t *indices, const double *data, int64_t col_base, \
    int64_t col_lo, int64_t n_cols, const double *diag, int64_t d_lo, \
    int64_t d_hi, const double *x, double *y_direct, double *y_local, \
    int64_t split
#define PASS row_lo, n_rows, indptr, indices, data, col_base, col_lo, \
    n_cols, diag, d_lo, d_hi, x, y_direct, y_local, split

/* A constant k keeps the k row sums in registers (2.5x faster per
 * column at k = 2 to 8 than a variable k); sym picks the fused loop. */
#define CALL(K) (sym ? product(1, K, PASS) : product(0, K, PASS))

/* One vector. */
int repro_spmv(int sym, ARGS)
{
    return CALL(1);
}

/* k columns, each index read once for all of them. */
int repro_spmm(int sym, int64_t k, ARGS)
{
    switch (k) {
    case 1: return CALL(1);
    case 2: return CALL(2);
    case 4: return CALL(4);
    case 8: return CALL(8);
    case 16: return CALL(16);
    default: return CALL(k);
    }
}

/*
 * One row batch of a color class (the conflict-free "coloring"
 * strategy): rows rows[i], elements ptr[i] <= p < ptr[i + 1]. A
 * distance-2 coloring makes every target unique within the batch (no
 * row is a column, no column repeats), so each is written once, straight
 * to y: y[r] += diag[i] * x[r] + (row sum from zero), y[c] += v * x[r].
 */
static inline __attribute__((always_inline)) void
batch(const int64_t k, int64_t n, const int64_t *rows, const int64_t *ptr,
      const int64_t *cols, const double *vals, const double *diag,
      const double *x, double *y, double *s)
{
    int64_t i, j, p;

    for (i = 0; i < n; i++) {
        const double *xr = x + rows[i] * k;
        for (j = 0; j < k; j++)
            s[j] = 0.0;
        for (p = ptr[i]; p < ptr[i + 1]; p++) {
            const double v = vals[p];
            for (j = 0; j < k; j++) {
                s[j] += v * x[cols[p] * k + j];
                y[cols[p] * k + j] += v * xr[j];
            }
        }
        for (j = 0; j < k; j++)
            y[rows[i] * k + j] += diag[i] * xr[j] + s[j];
    }
}

int repro_batch(int64_t k, int64_t n, const int64_t *rows,
                const int64_t *ptr, const int64_t *cols, const double *vals,
                const double *diag, const double *x, double *y)
{
    double *s = malloc((size_t)k * sizeof(double));

    if (s == NULL)
        return -1;
    if (k == 1)
        batch(1, n, rows, ptr, cols, vals, diag, x, y, s);
    else
        batch(k, n, rows, ptr, cols, vals, diag, x, y, s);
    free(s);
    return 0;
}

/*
 * CRC32C (Castagnoli, reflected polynomial 0x82F63B78) of buf[0, n),
 * continuing from crc: crc32c(b) == crc32c(b[k:], crc32c(b[:k])).
 * Slicing-by-8 over byte loads, so the result does not depend on the
 * host's byte order or alignment; table[j][v] is byte v followed by j
 * zero bytes. The tables are filled once, when the library loads.
 */
static uint32_t crc_table[8][256];

static void __attribute__((constructor)) crc_init(void)
{
    uint32_t v, r;
    int b, j;

    for (v = 0; v < 256; v++) {
        r = v;
        for (b = 0; b < 8; b++)
            r = (r >> 1) ^ (0x82F63B78u & (0u - (r & 1u)));
        crc_table[0][v] = r;
    }
    for (v = 0; v < 256; v++)
        for (j = 1; j < 8; j++)
            crc_table[j][v] = (crc_table[j - 1][v] >> 8)
                ^ crc_table[0][crc_table[j - 1][v] & 0xFF];
}

uint32_t repro_crc32c(uint32_t crc, const unsigned char *buf, int64_t n)
{
    uint32_t r = ~crc;

    for (; n >= 8; n -= 8, buf += 8) {
        r ^= (uint32_t)buf[0] | (uint32_t)buf[1] << 8
            | (uint32_t)buf[2] << 16 | (uint32_t)buf[3] << 24;
        r = crc_table[7][r & 0xFF] ^ crc_table[6][(r >> 8) & 0xFF]
            ^ crc_table[5][(r >> 16) & 0xFF] ^ crc_table[4][r >> 24]
            ^ crc_table[3][buf[4]] ^ crc_table[2][buf[5]]
            ^ crc_table[1][buf[6]] ^ crc_table[0][buf[7]];
    }
    for (; n > 0; n--, buf++)
        r = (r >> 8) ^ crc_table[0][(r ^ *buf) & 0xFF];
    return ~r;
}
