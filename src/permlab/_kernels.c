/* The compiled kernels of permlab, loaded together by permlab.compiled._kernels.
   This is the one list of them:
   - add_level, select_heavy and parent_histogram: the level build and the
     two per-level queries of the minor lattice;
   - glynn: Glynn's formula for every exact square permanent up to n = 30,
     and glynn_cofactors: the same sweep on blocks with one row more than
     columns, for the row-deleted cofactors that many_children expands its
     children along;
   - ryser_mod: Ryser's formula modulo m < 2**31, whose residues are the CRT
     oracle for glynn and the lattice;
   - naive_odd: the walk over all permutations of the naive engine;
   - sign_draws: the Philox4x64-10 sign draws of every seeded matrix and row.
   ryser_mod and naive_odd share no code with glynn's sweep or with each
   other, so each can check the others. */
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
   masks may be visited in any order.  The kernel starts on a cache line, so
   its loop's layout does not move with the size of the library's symbol
   table: shifted 48 bytes, it built lattices 3-5% slower. */
__attribute__((aligned(64))) int64_t
add_level(int64_t *vals, const int64_t *masks, int64_t count, const int8_t *row, int64_t n)
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
   s_j = sum over i of delta_i * a[i][j].  The sweep runs it on B = A at even
   n and, at odd n, on B = A with row 0 counted twice, so Per(B) = 2 Per(A),
   the permanent being linear in each row.  Then at every n each s_j is a sum
   of an even number of signs, so the lanes hold s_j / 2 and the total is
   2**(n-1) Per(B) / 2**n = Per(B) / 2: Per(A) at odd n, Per(A) / 2 at even
   n.  The deltas are visited in Gray-code order: step s flips
   delta_{i+1}, i = ctz(s), so each lane moves by -+a[i+1][j] and the sign
   prod_k delta_k alternates with s.

   The lanes have a fixed width, the least of 8, 16 and 32 that holds n,
   so every loop over them has a constant trip count; a lane j >= n holds 1
   and never moves.  Every step is a ring operation on unsigned words, which
   wrap and have no undefined overflow, so the total is exact modulo 2**64
   (n <= 20) or 2**128 (n > 20), and its signed reading is exact while
   |total| stays below 2**63 or 2**127: |Per| <= 19! < 2**63 at odd n <= 19
   and |Per / 2| <= 20! / 2 < 2**63 at even n <= 20, and every total through
   n = 30 is below 30! / 2 < 2**107.  Each product runs as four independent
   chains, p[k] over the lanes j = k (mod 4).  A lane is at most 15 in
   absolute value at n <= 30 and a chain has at most 8 lanes, so in 128 bits
   p[0] * p[1] and p[2] * p[3] are exact in int64 (15**16 < 2**63), and
   their product is one exact signed 64 x 64 -> 128 multiply.

   out[2b] and out[2b+1] are the low and high words of Per(A_b) in two's
   complement (the high word is 0 or -1 for n <= 20, where |Per| <= 20!).
   0 <= n <= 30 (the caller's cap); the empty matrix has permanent 1.

   With cofactors set, each block is n x (n - 1), one row more than columns
   (permlab.engines.cofactors), out[b * n + r] is the permanent of block b
   without row r, and a lane j >= n - 1 holds 1.  For any added column x,
   Per([A | x]) = sum over r of x_r * cof_r, and the formula over that square
   matrix is linear in x; its n - 1 lanes, h_j = s_j / 2, cancel the
   2**(n-1), so for B as above
       cof_r = sum over delta of prod_k delta_k * delta_r * prod_j h_j:
   at odd n, every cof_r with r >= 1 keeps the doubled row 0, so it comes
   out doubled and is halved at the end.  delta_r changes only at the steps
   that flip it, so each row's accumulator takes the stretch of the running
   total since that row last flipped (total - mark[r]), with the sign the row
   had over it.  Row 0 never flips, so its accumulator is the total; after
   the last step only delta_{n-1} is -1.  Every final accumulator is at most
   2 * 12! < 2**63, so the wrapping sums are exact for 1 <= n <= 13. */
static inline __attribute__((always_inline)) void
glynn_sweep(const int8_t *mats, int64_t count, int64_t n, const int lanes, const int wide,
            const int cofactors, int64_t *out)
{
    const int64_t cols = n - cofactors;
    for (int64_t b = 0; b < count; b++) {
        const int8_t *a = mats + b * n * cols;
        /* step[1][i - 1] is what delta_i going from +1 to -1 adds to the
           lanes, step[0][i - 1] what going back adds */
        uint64_t step[2][29][32], sums[32];
        for (int j = 0; j < lanes; j++) {
            int64_t col = j < cols ? n % 2 * a[j] : 0;  /* row 0 once more at odd n */
            for (int64_t i = 0; i < n; i++) {
                int64_t entry = j < cols ? a[i * cols + j] : 0;
                col += entry;
                if (i) {
                    step[0][i - 1][j] = (uint64_t)entry;
                    step[1][i - 1][j] = -step[0][i - 1][j];
                }
            }
            sums[j] = j < cols ? (uint64_t)(col / 2) : 1;
        }
        uint64_t total = 0, cof[13] = {0}, mark[13] = {0};
        unsigned __int128 total128 = 0;
        for (uint64_t s = 0; s >> (n - 1) == 0; s++) {
            if (s) {
                int i = __builtin_ctzll(s);
                const uint64_t *d = step[(s ^ s >> 1) >> i & 1][i];
#pragma GCC unroll 16
                for (int j = 0; j < lanes; j++)
                    sums[j] += d[j];
                if (cofactors) {
                    /* the terms since delta_{i+1} last flipped had its old
                       sign: +1 if it now goes to -1 */
                    cof[i + 1] += (s ^ s >> 1) >> i & 1 ? total - mark[i + 1]
                                                        : mark[i + 1] - total;
                    mark[i + 1] = total;
                }
            }
            /* four independent chains of multiplies, not one */
            uint64_t p[4] = {1, 1, 1, 1};
#pragma GCC unroll 32
            for (int j = 0; j < lanes; j++)
                p[j % 4] *= sums[j];
            if (wide) {
                unsigned __int128 prod = (__int128)(int64_t)(p[0] * p[1]) * (int64_t)(p[2] * p[3]);
                total128 = s & 1 ? total128 - prod : total128 + prod;
            } else {
                uint64_t prod = p[0] * p[1] * (p[2] * p[3]);
                total = s & 1 ? total - prod : total + prod;
            }
        }
        if (cofactors) {
            for (int64_t r = 0; r < n; r++) {
                uint64_t acc = r == 0       ? total
                               : r == n - 1 ? cof[r] + mark[r] - total
                                            : cof[r] + total - mark[r];
                out[b * n + r] = r && n % 2 ? (int64_t)acc / 2 : (int64_t)acc;
            }
            continue;
        }
        __int128 per = wide ? (__int128)total128 : (int64_t)total;
        per *= 2 - n % 2;
        out[2 * b] = (int64_t)(uint64_t)per;
        out[2 * b + 1] = (int64_t)(uint64_t)((unsigned __int128)per >> 64);
    }
}

/* Each width is its own function, kept out of glynn: inlined there together,
   the sweeps slowed one another by 10-25%. */
#define GLYNN_WIDTH(name, lanes, wide, cofactors)                             \
    static __attribute__((noinline)) void                                     \
    name(const int8_t *mats, int64_t count, int64_t n, int64_t *out)          \
    {                                                                         \
        glynn_sweep(mats, count, n, lanes, wide, cofactors, out);             \
    }
GLYNN_WIDTH(glynn_8, 8, 0, 0)
GLYNN_WIDTH(glynn_16, 16, 0, 0)
GLYNN_WIDTH(glynn_32, 32, 0, 0)
GLYNN_WIDTH(glynn_wide, 32, 1, 0)
GLYNN_WIDTH(cofactors_8, 8, 0, 1)
GLYNN_WIDTH(cofactors_16, 16, 0, 1)

void glynn(const int8_t *mats, int64_t count, int64_t n, int64_t *out)
{
    if (n == 0)
        for (int64_t b = 0; b < count; b++)
            out[2 * b] = 1, out[2 * b + 1] = 0;
    else if (n <= 8)
        glynn_8(mats, count, n, out);
    else if (n <= 16)
        glynn_16(mats, count, n, out);
    else if (n <= 20)
        glynn_32(mats, count, n, out);
    else
        glynn_wide(mats, count, n, out);
}

/* The cofactors of count rows x (rows - 1) blocks, 1 <= rows <= 13, in the
   fewest lanes that hold rows - 1 columns. */
void glynn_cofactors(const int8_t *mats, int64_t count, int64_t rows, int64_t *out)
{
    if (rows <= 9)
        cofactors_8(mats, count, rows, out);
    else
        cofactors_16(mats, count, rows, out);
}

/* Ryser's formula over the row sets S of count n x n sign matrices, stored
   row-major one after another in mats (permlab.engines.permanent_mod;
   0 <= n <= 30, 2 <= modulus < 2**31): out[b] is the residue in
   [0, modulus) of Per(A_b) = Per(A_b^T) = sum over all S of
       (-1)**(n - |S|) * prod over j of colsum_S[j],
   colsum_S[j] = sum over i in S of a[i][j].  Row sets are visited in
   Gray-code order (Nijenhuis-Wilf): step s toggles row ctz(s), so the column
   sums are updated from one contiguous row, |colsum_S[j]| <= n, and
   |S| = s (mod 2).  The product is reduced after every 6 factors, so it
   stays below 2**31 * 30**6 < 2**61; each reduced product is below 2**31,
   so the total stays below 2**n * 2**31 <= 2**61 for n <= 30.  Exact square
   permanents come from glynn; these residues are the oracle that checks
   it. */
void ryser_mod(const int8_t *mats, int64_t count, int64_t n, int64_t modulus, int64_t *out)
{
    for (int64_t b = 0; b < count; b++) {
        const int8_t *a = mats + b * n * n;
        int64_t sums[64] = {0};
        int64_t total = n == 0;  /* the empty set's term; 0 once n >= 1 */
        for (uint64_t s = 1; s >> n == 0; s++) {
            int i = __builtin_ctzll(s);
            const int8_t *row = a + i * n;
            if ((s ^ s >> 1) >> i & 1)  /* row i joins S = gray(s) */
                for (int64_t j = 0; j < n; j++)
                    sums[j] += row[j];
            else
                for (int64_t j = 0; j < n; j++)
                    sums[j] -= row[j];
            int64_t prod = 1;
            for (int64_t j = 0; j < n; j += 6) {
                int64_t end = j + 6 < n ? j + 6 : n;
                for (int64_t k = j; k < end; k++)
                    prod *= sums[k];
                prod %= modulus;
            }
            total += (n ^ s) & 1 ? -prod : prod;
        }
        out[b] = (total % modulus + modulus) % modulus;
    }
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
   entries picked so far; it shares no code with the lattice, Glynn or Ryser
   kernels, so the naive engine stays an independent oracle for them.
   1 <= n <= 10 (the caller's cap): odd <= n! <= 10! fits int64 many times
   over, and the recursion is at most n deep. */
int64_t naive_odd(const uint64_t *neg, int64_t n)
{
    if (n == 1)
        return neg[0] & 1;
    return naive_walk(neg, 0, n - 1, ((uint64_t)1 << n) - 1, 0);
}

/* count draws of cells iid uniform signs each, out[b * cells + c] in {-1, +1}
   (permlab.matrices.sample_sign_matrix, sample_sign_matrices and sample_row).

   Draw b is what numpy's Generator(Philox(key=[keys[2b], keys[2b+1]]))
   .integers(0, 2, size=cells, dtype=int8) returns, times 2, minus 1:
   Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers:
   as easy as 1, 2, 3", SC 2011) with that key and a 256-bit counter that
   starts at 0 and is incremented before each block of four uint64; each
   uint64 gives two uint32, low half first; each uint32 gives four bytes, low
   byte first; and Lemire's rule with range 2 takes the top bit of each byte,
   with no rejection (its threshold, (255 - 1) % 2, is 0).  So the draw's
   bytes are the words of the blocks in order, each read from its low byte
   up.  cells <= 63 * 63 needs at most 125 blocks, so the counter's low word
   never carries. */
static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
}

void sign_draws(const uint64_t *keys, int64_t count, int64_t cells, int8_t *out)
{
    for (int64_t b = 0; b < count; b++) {
        int8_t *o = out + b * cells;
        for (int64_t c = 0, done = 0; done < cells; c++) {
            uint64_t x[4] = {(uint64_t)c + 1, 0, 0, 0};
            uint64_t k0 = keys[2 * b], k1 = keys[2 * b + 1];
            for (int round = 0; round < 10; round++) {
                if (round) {
                    k0 += 0x9E3779B97F4A7C15u;
                    k1 += 0xBB67AE8584CAA73Bu;
                }
                uint64_t hi0, hi1;
                uint64_t lo0 = mulhilo(0xD2E7470EE14C6C93u, x[0], &hi0);
                uint64_t lo1 = mulhilo(0xCA5A826395121157u, x[2], &hi1);
                x[0] = hi1 ^ x[1] ^ k0;
                x[1] = lo1;
                x[2] = hi0 ^ x[3] ^ k1;
                x[3] = lo0;
            }
            for (int w = 0; w < 4; w++)
                for (int byte = 0; byte < 8 && done < cells; byte++, done++)
                    o[done] = (int8_t)(2 * (int)(x[w] >> (8 * byte + 7) & 1) - 1);
        }
    }
}
