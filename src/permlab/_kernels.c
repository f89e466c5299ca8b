/* The compiled kernels of permlab, loaded together by permlab.lattice._kernels. */
#include <stdint.h>

/* One level of the minor lattice (permlab.lattice.MinorTable.add_level).

   For each level-k mask m in masks[0 .. count-1]:
       vals[m] = sum over set bits i of m of  row[i] * vals[m ^ (1 << i)].

   Exact in int64: a level-j value is at most j! in absolute value, so every
   partial sum here is at most k * (k-1)! = k! <= 20! < 2**63.  Reads touch
   only level k-1 and writes only level k, so the masks may be visited in any
   order. */
void add_level(int64_t *vals, const int64_t *masks, int64_t count, const int64_t *row)
{
    for (int64_t j = 0; j < count; j++) {
        uint64_t m = (uint64_t)masks[j];
        int64_t acc = 0;
        for (uint64_t rest = m; rest; rest &= rest - 1) {
            int i = __builtin_ctzll(rest);
            acc += row[i] * vals[m ^ ((uint64_t)1 << i)];
        }
        vals[m] = acc;
    }
}

/* Permanents of count n x n sign matrices, stored row-major one after another
   in mats (permlab.engines.ryser_batch and permanent_mod).

   Ryser's formula over the rows, Per(A) = Per(A^T) =
       sum over row sets S of (-1)**(n - |S|) * prod over j of (sum over i in S of a[i][j]),
   visits S in Gray-code order (Nijenhuis-Wilf): step s toggles row ctz(s),
   so the column sums are updated from one contiguous row.  Each |sum| <= n.

   modulus == 0: exact.  Each product is at most n**n and the total at most
   2**n * n**n, which is below 2**63 for n <= 13.
   2 <= modulus < 2**31: out[b] is the residue in [0, modulus).  The product
   is reduced after every 6 factors, so it stays below 2**31 * 30**6 < 2**61;
   each reduced product is below 2**31, so the total stays below
   2**n * 2**31 <= 2**61 for n <= 30. */
void ryser(const int8_t *mats, int64_t count, int64_t n, int64_t modulus, int64_t *out)
{
    for (int64_t b = 0; b < count; b++) {
        const int8_t *a = mats + b * n * n;
        int64_t sums[64] = {0};
        int64_t total = n == 0;  /* the empty set's term; 0 once n >= 1 */
        for (uint64_t s = 1; s >> n == 0; s++) {
            int i = __builtin_ctzll(s);
            const int8_t *row = a + i * n;
            if ((s ^ s >> 1) >> i & 1)  /* row i is in S = gray(s) */
                for (int64_t j = 0; j < n; j++)
                    sums[j] += row[j];
            else
                for (int64_t j = 0; j < n; j++)
                    sums[j] -= row[j];
            int64_t prod = 1;
            if (modulus == 0) {
                for (int64_t j = 0; j < n; j++)
                    prod *= sums[j];
            } else {
                for (int64_t j = 0; j < n; j += 6) {
                    int64_t end = j + 6 < n ? j + 6 : n;
                    for (int64_t k = j; k < end; k++)
                        prod *= sums[k];
                    prod %= modulus;
                }
            }
            /* one row joins or leaves S per step, so |S| = s (mod 2) */
            total += (n ^ s) & 1 ? -prod : prod;
        }
        out[b] = modulus == 0 ? total : (total % modulus + modulus) % modulus;
    }
}
