/* The compiled kernels of permlab, loaded together by permlab.lattice._kernels:
   the level build and the two per-level queries of the minor lattice
   (add_level, select_heavy, parent_histogram), Glynn's formula (glynn) for
   every exact square permanent up to n = 30, Ryser's formula (ryser) for the
   modular engine and, on a block with one row more than columns, for the
   row-deleted cofactors that many_children expands its children along, and
   the walk over all permutations of the naive engine (naive_odd).  glynn,
   ryser and naive_odd share no code, so each can check the others. */
#include <stdint.h>

/* One level of the minor lattice (permlab.lattice.MinorTable.add_level).

   row holds the exposed row's n int8 entries: an entry other than -1 or +1
   stops the kernel before any write, returning its index + 1.  With neg the
   mask of the -1 columns, for each level-k mask m in masks[0 .. count-1]:
       vals[m] = sum over i in m & ~neg of vals[m ^ (1 << i)]
               - sum over i in m &  neg of vals[m ^ (1 << i)],
   the cofactor recursion over the row with no multiply.  Returns 0.

   Exact in int64: a level-(k-1) value is at most (k-1)! in absolute value
   and each partial sum has at most k terms, so each is at most
   k * (k-1)! = k! <= 20! < 2**63, and so is their difference, which is a
   level-k value.  Reads touch only level k-1 and writes only level k, so the
   masks may be visited in any order. */
int64_t add_level(int64_t *vals, const int64_t *masks, int64_t count, const int8_t *row, int64_t n)
{
    uint64_t neg = 0;
    for (int64_t i = 0; i < n; i++)
        if (row[i] == -1)
            neg |= (uint64_t)1 << i;
        else if (row[i] != 1)
            return i + 1;
    for (int64_t j = 0; j < count; j++) {
        uint64_t m = (uint64_t)masks[j];
        int64_t plus = 0, minus = 0;
        for (uint64_t rest = m & ~neg; rest; rest &= rest - 1)
            plus += vals[m ^ ((uint64_t)1 << __builtin_ctzll(rest))];
        for (uint64_t rest = m & neg; rest; rest &= rest - 1)
            minus += vals[m ^ ((uint64_t)1 << __builtin_ctzll(rest))];
        vals[m] = plus - minus;
    }
    return 0;
}

/* The masks of one level whose |value| reaches t, in the order given
   (permlab.lattice.MinorTable.heavy_masks and heavy_count).

   Writes them to out[0 .. c-1], unless out is NULL, and returns c.  Each
   mask is stored and the count advanced by the comparison, with no branch:
   about half the masks of a level are heavy, so a branch would mispredict
   about half the time.  0 <= t < 2**63 (the caller clamps), and |value| <=
   20!, so the negation cannot overflow. */
int64_t select_heavy(const int64_t *vals, const int64_t *masks, int64_t count, int64_t t,
                     int64_t *out)
{
    int64_t c = 0;
    for (int64_t j = 0; j < count; j++) {
        int64_t m = masks[j];
        int64_t v = vals[m];
        if (out)
            out[c] = m;
        c += (v < 0 ? -v : v) >= t;
    }
    return c;
}

/* hist[l] = number of size-(k+1) sets with exactly l parents among the
   count distinct size-k masks in members (permlab.lattice.parent_histogram).

   scratch is 2**n bytes that are zero on entry and on return, and hist n+1
   zeroed counts.  The members are checked first: a member outside
   [0, 2**n), off level k, or repeated stops the kernel, which clears the
   marks it has set and returns the member's index + 1 (the repeat is found
   by marking each member in scratch; members and children lie on different
   levels, so the marks never meet the child counts).  Then each member adds
   1 at each of its children, and a second pass clears the member's mark and
   reads each count of the same children into hist and clears it; the later
   visits of a child read the cleared 0, so hist[0] collects them and is
   reset at the end.  A child has at most k+1 <= n distinct parents, so no
   count wraps its byte or indexes past hist[n].  Returns 0. */
int64_t parent_histogram(const int64_t *members, int64_t count, int64_t n, int64_t k,
                         uint8_t *scratch, int64_t *hist)
{
    const uint64_t full = ((uint64_t)1 << n) - 1;
    for (int64_t j = 0; j < count; j++) {
        uint64_t m = (uint64_t)members[j];
        if (m & ~full || __builtin_popcountll(m) != k || scratch[m]) {
            for (int64_t i = 0; i < j; i++)
                scratch[members[i]] = 0;
            return j + 1;
        }
        scratch[m] = 1;
    }
    for (int64_t j = 0; j < count; j++) {
        uint64_t m = (uint64_t)members[j];
        for (uint64_t rest = ~m & full; rest; rest &= rest - 1)
            scratch[m | (rest & -rest)]++;
    }
    for (int64_t j = 0; j < count; j++) {
        uint64_t m = (uint64_t)members[j];
        scratch[m] = 0;
        for (uint64_t rest = ~m & full; rest; rest &= rest - 1) {
            uint64_t child = m | (rest & -rest);
            hist[scratch[child]]++;
            scratch[child] = 0;
        }
    }
    hist[0] = 0;
    return 0;
}

/* Glynn's formula (D. G. Glynn, "The permanent of a square matrix",
   European J. Combin. 31, 2010) over count n x n sign matrices, stored
   row-major one after another in mats (permlab.engines.permanent,
   permanents and ryser_batch).  With delta ranging over the sign vectors
   with delta_0 = +1,
       2**(n-1) * Per(A) = sum over delta of prod_k delta_k
                                          * prod over columns j of s_j,
   s_j = sum over i of delta_i * a[i][j].  The deltas are visited in
   Gray-code order: step s flips delta_{i+1}, i = ctz(s), so each s_j moves
   by -+2 a[i+1][j] and the sign prod_k delta_k alternates with s.  For even
   n every s_j is a sum of an even number of signs, so the lanes hold s_j / 2,
   which moves by -+a[i+1][j], and the total is 2**(n-1) Per / 2**n = Per / 2.
   For odd n the lanes hold s_j and the total is 2**(n-1) Per.

   The lanes have a fixed width, 16 for n <= 16 and 32 above, so every loop
   over them has a constant trip count; a lane j >= n holds 1 and never
   moves.  Every step is a ring operation on unsigned words, which wrap and
   have no undefined overflow, so the total is exact modulo 2**64 (even
   n <= 20, odd n <= 15) or 2**128 (every other n), and its signed reading
   is exact iff the true total lies in [-2**63, 2**63) or [-2**127, 2**127):
   - even n: |Per / 2| <= n! / 2, below 2**63 for n <= 20, 2**107 for n <= 30;
   - odd n: |2**(n-1) Per| <= 2**(n-1) n!, below 2**55 for n <= 15, 2**120
     for n <= 27, but 2**130 or more at n = 29, which the caller
     (permlab.engines.permanents) borders to 30 x 30 instead.
   Each product runs as four independent chains, p[k] over the lanes
   j = k (mod 4).  In 128 bits a chain has at most 8 lanes of absolute value
   at most 29, so it is exact as int64 (29**8 < 2**39); p[0] * p[1] and
   p[2] * p[3] are exact as int128, and their product wraps like the total.

   out[2b] and out[2b+1] are the low and high words of Per(A_b) in two's
   complement (the high word is 0 or -1 for n <= 20, where |Per| <= 20!).
   0 <= n <= 30, n != 29 (the caller's cap); the empty matrix has permanent 1. */
static inline __attribute__((always_inline)) void
glynn_sweep(const int8_t *mats, int64_t count, int64_t n, const int lanes, const int wide,
            int64_t *out)
{
    const int64_t div = 2 - n % 2;  /* the lanes hold s_j / div */
    for (int64_t b = 0; b < count; b++) {
        const int8_t *a = mats + b * n * n;
        /* step[1][i - 1] is what delta_i going from +1 to -1 adds to the
           lanes, step[0][i - 1] what going back adds */
        uint64_t step[2][29][32], sums[32];
        for (int j = 0; j < lanes; j++) {
            int64_t col = 0;
            for (int64_t i = 0; i < n; i++) {
                int64_t entry = j < n ? a[i * n + j] : 0;
                col += entry;
                if (i) {
                    step[0][i - 1][j] = (uint64_t)(2 * entry / div);
                    step[1][i - 1][j] = -step[0][i - 1][j];
                }
            }
            sums[j] = j < n ? (uint64_t)(col / div) : 1;
        }
        uint64_t total = 0;
        unsigned __int128 total128 = 0;
        for (uint64_t s = 0; s >> (n - 1) == 0; s++) {
            if (s) {
                int i = __builtin_ctzll(s);
                const uint64_t *d = step[(s ^ s >> 1) >> i & 1][i];
                for (int j = 0; j < lanes; j++)
                    sums[j] += d[j];
            }
            /* four independent chains of multiplies, not one */
            uint64_t p[4] = {1, 1, 1, 1};
#pragma GCC unroll 32
            for (int j = 0; j < lanes; j++)
                p[j % 4] *= sums[j];
            if (wide) {
                unsigned __int128 half = (__int128)(int64_t)p[0] * (int64_t)p[1];
                unsigned __int128 prod = half * ((__int128)(int64_t)p[2] * (int64_t)p[3]);
                total128 = s & 1 ? total128 - prod : total128 + prod;
            } else {
                uint64_t prod = p[0] * p[1] * (p[2] * p[3]);
                total = s & 1 ? total - prod : total + prod;
            }
        }
        __int128 per;
        if (wide)
            per = n % 2 ? (__int128)total128 / ((__int128)1 << (n - 1)) : 2 * (__int128)total128;
        else
            per = n % 2 ? (int64_t)total / ((int64_t)1 << (n - 1)) : 2 * (int64_t)total;
        out[2 * b] = (int64_t)(uint64_t)per;
        out[2 * b + 1] = (int64_t)(uint64_t)((unsigned __int128)per >> 64);
    }
}

/* Kept out of glynn: inlined there, it slowed the 64-bit sweeps 10-15%. */
static __attribute__((noinline)) void
glynn_wide(const int8_t *mats, int64_t count, int64_t n, int64_t *out)
{
    glynn_sweep(mats, count, n, 32, 1, out);
}

void glynn(const int8_t *mats, int64_t count, int64_t n, int64_t *out)
{
    if (n == 0)
        for (int64_t b = 0; b < count; b++)
            out[2 * b] = 1, out[2 * b + 1] = 0;
    else if (n <= 16)
        glynn_sweep(mats, count, n, 16, 0, out);
    else if (n % 2 == 0 && n <= 20)
        glynn_sweep(mats, count, n, 32, 0, out);
    else
        glynn_wide(mats, count, n, out);
}

/* Ryser's formula over the row sets of count rows x cols sign blocks, stored
   row-major one after another in mats.  Row sets S are visited in Gray-code
   order (Nijenhuis-Wilf): step s toggles row ctz(s), so the column sums
   colsum_S[j] = sum over i in S of a[i][j] are updated from one contiguous
   row, and |colsum_S[j]| <= |S|.  Each S has the term
       t_S = (-1)**(cols - |S|) * prod over j of colsum_S[j].

   cols == rows (permlab.engines.permanent_mod; modular only,
   2 <= modulus < 2**31): out[b] is the residue in [0, modulus) of the
   permanent of square matrix b, Per(A) = Per(A^T) = sum over all S of t_S.
   The product is reduced after every 6 factors, so it stays below
   2**31 * 30**6 < 2**61; each reduced product is below 2**31, so the total
   stays below 2**n * 2**31 <= 2**61 for n <= 30.  Exact square permanents
   come from glynn; these residues are the oracle that checks it.

   cols == rows - 1 (permlab.engines.ryser_cofactors; exact only, modulus 0):
   out[b * rows + r] is the permanent of block b without row r,
       sum over S not containing r of t_S,
   all rows of them from the one sweep.  A row's membership in S changes only
   at the steps that toggle it, so between two such steps every term lands
   on the same side of it: when row i joins S, the terms added to the running
   total since it last moved (total - mark[i]) were all outside it, and go to
   cof[i]; after the last step every row but rows - 1 is outside.  By Laplace
   expansion along an added column c, the square matrix [block | c] has
   permanent sum over r of c[r] * out[b * rows + r].  The running total and
   each of its stretches sum at most 2**rows terms of size at most
   rows**cols, and 2**13 * 13**12 < 2**63, so the path is exact for
   rows <= 13.

   The subset loop is written once, in ryser_sweep; ryser inlines it once
   per shape, so neither path has a per-step shape test. */
static inline __attribute__((always_inline)) void
ryser_sweep(const int8_t *mats, int64_t count, int64_t rows, int64_t cols, int64_t modulus,
            const int cofactors, int64_t *out)
{
    for (int64_t b = 0; b < count; b++) {
        const int8_t *a = mats + b * rows * cols;
        int64_t sums[64] = {0};
        int64_t total = cols == 0;  /* the empty set's term; 0 once cols >= 1 */
        int64_t cof[64] = {0}, mark[64] = {0};
        for (uint64_t s = 1; s >> rows == 0; s++) {
            int i = __builtin_ctzll(s);
            const int8_t *row = a + i * cols;
            int joins = (s ^ s >> 1) >> i & 1;  /* row i is in S = gray(s) */
            if (joins)
                for (int64_t j = 0; j < cols; j++)
                    sums[j] += row[j];
            else
                for (int64_t j = 0; j < cols; j++)
                    sums[j] -= row[j];
            if (cofactors) {
                if (joins)
                    cof[i] += total - mark[i];
                mark[i] = total;
            }
            int64_t prod = 1;
            if (cofactors) {
                for (int64_t j = 0; j < cols; j++)
                    prod *= sums[j];
            } else {
                for (int64_t j = 0; j < cols; j += 6) {
                    int64_t end = j + 6 < cols ? j + 6 : cols;
                    for (int64_t k = j; k < end; k++)
                        prod *= sums[k];
                    prod %= modulus;
                }
            }
            /* one row joins or leaves S per step, so |S| = s (mod 2) */
            total += (cols ^ s) & 1 ? -prod : prod;
        }
        if (cofactors)  /* the last S is {rows - 1}: every other row is outside */
            for (int64_t r = 0; r < rows; r++)
                out[b * rows + r] = r == rows - 1 ? cof[r] : cof[r] + total - mark[r];
        else
            out[b] = (total % modulus + modulus) % modulus;
    }
}

void ryser(const int8_t *mats, int64_t count, int64_t rows, int64_t cols, int64_t modulus,
           int64_t *out)
{
    if (cols == rows)
        ryser_sweep(mats, count, rows, cols, modulus, 0, out);
    else
        ryser_sweep(mats, count, rows, cols, 0, 1, out);
}

/* The number of ways to give rows row .. last distinct columns from free so
   that the -1 entries picked, together with the parity carried in, are odd
   in number.  Each row takes a free column in turn; the last two rows are
   unrolled, since two free columns leave exactly two ways to finish. */
static int64_t naive_walk(const uint64_t *neg, int64_t row, int64_t last, uint64_t free,
                          uint64_t parity)
{
    if (row == last - 1) {
        uint64_t a = free & -free, b = free ^ a, x = neg[row], y = neg[last];
        return (parity ^ !!(x & a) ^ !!(y & b)) + (parity ^ !!(x & b) ^ !!(y & a));
    }
    int64_t odd = 0;
    for (uint64_t rest = free; rest; rest &= rest - 1) {
        uint64_t col = rest & -rest;
        odd += naive_walk(neg, row + 1, last, free ^ col, parity ^ !!(neg[row] & col));
    }
    return odd;
}

/* The number of permutations sigma of {0 .. n-1} that pick an odd number of
   -1 entries, where neg[r] is the mask of row r's -1 columns
   (permlab.engines.permanent_naive, which returns n! - 2 * odd).

   The walk is depth first over the rows and carries the parity of the -1
   entries picked so far; it shares no code with the lattice or Ryser
   kernels, so the naive engine stays an independent oracle for them.
   1 <= n <= 10 (the caller's cap): odd <= n! <= 10! fits int64 many times
   over, and the recursion is at most n deep. */
int64_t naive_odd(const uint64_t *neg, int64_t n)
{
    if (n == 1)
        return neg[0] & 1;
    return naive_walk(neg, 0, n - 1, ((uint64_t)1 << n) - 1, 0);
}
