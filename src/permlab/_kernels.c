/* The compiled kernels of permlab, loaded together by permlab.compiled._kernels.
   This is the one list of them:
   - add_level: the level build of the minor lattice, each level stored
     divided by the power of two that divides every sign permanent of its
     size, levels through 15 as int32 and past it as int64 in one buffer,
     walking the level's uint32 masks (n <= LATTICE_MAX_N = 22 < 32),
     sixteen int32 or eight int64 values at a time with AVX-512F gathers
     where the host has them and one at a time for the rest, with or
     without the new level's heavy sets at one threshold selected in the
     same pass, and stopping on a value that is not a multiple of its
     level's power of two;
   - glynn: Glynn's formula for every exact square permanent up to n = 30,
     on int8 vector lanes.  On a host with AVX-512BW and DQ one sweep
     takes n <= 20, a 512-bit vector holding eight whole matrices at n <= 8
     and four or two Gray-code walks of one matrix from n = 9, and every
     step is multiplied out; elsewhere, and past n = 20 on every host, one
     matrix is swept at a time, and past 8 lanes the steps whose product is
     0 are skipped; and
     glynn_cofactors: the same sweeps on blocks with one row more than
     columns, eight or four blocks to a vector on such a host, for the
     row-deleted cofactors that many_children expands its children along;
   - ryser_mod: Ryser's formula modulo m < 2**31, whose residues are the CRT
     oracle for glynn and the lattice;
   - naive_odd: the naive engine's count of odd permutations, by Laplace
     expansion along the last four rows;
   - sign_draws: the Philox4x64-10 sign draws of every seeded matrix and row.
   ryser_mod and naive_odd share no code with glynn's sweep or with each
   other, so each can check the others. */
#include <stdint.h>
#include <string.h>

/* One level of the minor lattice (permlab.lattice.MinorTable.add_level),
   built and, unless t is NULL, its heavy sets selected in the same pass.

   Level j of vals is stored divided by 2**s_j, s_j = j - floor(log2 j) - 1
   (0 at j = 0): every j x j sign permanent is a multiple of 2**s_j
   (A. R. Kraeuter and N. Seifter, "Some properties of the permanent of
   (1,-1)-matrices", Linear and Multilinear Algebra 15, 1984).  Each level
   is stored at the narrowest width its bound allows, all in the one buffer
   vals: a level j <= NARROW_MAX_K = 15 value of mask m is an int32 at byte
   4 m, a level j >= 16 value an int64 at byte 8 m.  The int64 slot of m
   covers the int32 slots of 2 m and 2 m + 1, of popcount(m) >= 16 and
   popcount(m) + 1, which hold no level; so an int64 write never overwrites
   a live int32 value and an int64 read never reads one, and, the other way
   round, the int32 slot of m (popcount <= 15) lies in the int64 slot of
   m >> 1, whose popcount is at most 15.  The caller allocates 4 * 2**n
   bytes for n <= 15 and 8 * 2**n bytes past it.

   row holds the exposed row's n int8 entries: an entry other than -1 or +1
   stops the kernel before any write, returning its index + 1.  masks holds
   the level's masks as uint32, which holds every mask because the lattice
   has n <= LATTICE_MAX_N = 22 < 32 columns; every mask of a level has the
   same popcount k, read from masks[0] (count >= 1: level k of n columns
   has C(n, k) masks).  With neg the mask of the -1
   columns, for each level-k mask m in masks[0 .. count-1]:
       vals[m] = (sum over i in m & ~neg of vals[m ^ (1 << i)]
                - sum over i in m &  neg of vals[m ^ (1 << i)]) >> shift,
   the cofactor recursion over the row with no multiply, where
   shift = s_k - s_(k-1) is 0 when k is a power of two and 1 otherwise.
   The difference is Per / 2**s_(k-1) for the level-k minor, a multiple of
   2**shift, so the shift divides exactly; gcc shifts a negative integer
   arithmetically, so it divides negative values too.  Every sweep ORs
   together the differences it shifts: if a bit that the shift drops is set
   in any, the level holds a value that no sign matrix has, and the kernel
   returns DROPPED_BIT (-1), after its writes.  Otherwise it returns 0.

   With t not NULL, *t holds on entry the threshold on the stored values,
   in [0, 2**31) at k <= 15 and in [0, 2**63) past it (the caller scales
   and clamps); each mask whose new |value| reaches it is written, in the
   order given, to out, an int64 list with room for count masks, and *t is
   replaced by how many were written.

   On a host with AVX-512F (gcc's run-time check), a level k <= 15 builds
   its first count & ~15 masks sixteen at a time (gather_sweep32) and a
   level k >= 16 its first count & ~7 eight at a time (gather_sweep); the
   rest, and on every other host or outside x86-64 all of them, are built
   one by one (level_sweep32 and level_sweep).  The sweeps of a width add
   the same terms, shift the same sums and select by the same comparison,
   so they write the same bytes.

   Exact: a stored level-(k-1) value is at most (k-1)! / 2**s_(k-1) in
   absolute value and each partial sum has at most k terms, so each, and
   their difference, is at most k! / 2**s_(k-1).  That is
   15! / 2**10 = 1,277,025,750 < 2**31 at k = 15, whose stored values are
   at most 15! / 2**11 = 638,512,875, so levels through 15 are summed and
   stored in int32.  At k = 16 it is 16! / 2**11 > 2**31, so level 16 sums
   its int32 parents in int64, and so does every level past it: the bound
   is 22! / 2**16 < 2**54 at the lattice's cap of 22 and stays below 2**63
   through k = 24.  A stored level-k value is at most k! / 2**s_k
   (22! / 2**17 < 2**53) and can be negated.  Reads touch only level k-1
   and writes only level k, so the masks may be visited in any order. */
#define NARROW_MAX_K 15
#define DROPPED_BIT (-1)

/* What a sweep leaves: how many heavy masks it wrote (0 without heavy) and
   the OR of every difference it shifted. */
typedef struct {
    int64_t found;
    uint64_t diffs;
} swept;

/* The scalar sweeps, one mask at a time: a loop over the mask's +1 columns
   and one over its -1 columns.  level_sweep32 sums and stores a level
   k <= 15 in int32; level_sweep sums and stores a level k >= 16 in int64,
   from int32 parents when narrow is set (k = 16).  With heavy set, each
   mask is stored and the count advanced by the comparison with threshold,
   with no branch: about half the masks of a level are heavy, so a branch
   would mispredict about half the time. */
static inline __attribute__((always_inline)) swept
level_sweep32(int32_t *vals, const uint32_t *masks, int64_t count, uint64_t neg, int64_t shift,
              const int heavy, int64_t threshold, int64_t *restrict out)
{
    swept done = {0, 0};
    for (int64_t j = 0; j < count; j++) {
        uint64_t m = masks[j];
        int32_t plus = 0, minus = 0;
        for (uint64_t rest = m & ~neg; rest; rest &= rest - 1)
            plus += vals[m ^ ((uint64_t)1 << __builtin_ctzll(rest))];
        for (uint64_t rest = m & neg; rest; rest &= rest - 1)
            minus += vals[m ^ ((uint64_t)1 << __builtin_ctzll(rest))];
        int32_t v = plus - minus;
        done.diffs |= (uint32_t)v;
        v >>= shift;
        vals[m] = v;
        if (heavy) {
            out[done.found] = (int64_t)m;
            done.found += (v < 0 ? -v : v) >= threshold;
        }
    }
    return done;
}

static inline __attribute__((always_inline)) swept
level_sweep(int64_t *vals, const uint32_t *masks, int64_t count, uint64_t neg, int64_t shift,
            const int heavy, int64_t threshold, int64_t *restrict out, const int narrow)
{
    const int32_t *parents = (const int32_t *)vals;
    swept done = {0, 0};
    for (int64_t j = 0; j < count; j++) {
        uint64_t m = masks[j];
        int64_t plus = 0, minus = 0;
        for (uint64_t rest = m & ~neg; rest; rest &= rest - 1) {
            uint64_t p = m ^ ((uint64_t)1 << __builtin_ctzll(rest));
            plus += narrow ? parents[p] : vals[p];
        }
        for (uint64_t rest = m & neg; rest; rest &= rest - 1) {
            uint64_t p = m ^ ((uint64_t)1 << __builtin_ctzll(rest));
            minus += narrow ? parents[p] : vals[p];
        }
        int64_t v = plus - minus;
        done.diffs |= (uint64_t)v;
        v >>= shift;
        vals[m] = v;
        if (heavy) {
            out[done.found] = (int64_t)m;
            done.found += (v < 0 ? -v : v) >= threshold;
        }
    }
    return done;
}

/* Each sweep of each width, plain and selecting, is its own function,
   starting on a cache line, so the loop's layout does not move with the
   size of the library's symbol table: shifted 48 bytes, the plain int64
   sweep built lattices 3-5% slower. */
typedef swept (*sweep_fn)(void *vals, const uint32_t *masks, int64_t count, uint64_t neg,
                          int64_t shift, int64_t threshold, int64_t *out);
#define LEVEL_SWEEP(name, call)                                               \
    static __attribute__((noinline, aligned(64))) swept                       \
    name(void *vals, const uint32_t *masks, int64_t count, uint64_t neg,      \
         int64_t shift, int64_t threshold, int64_t *out)                      \
    {                                                                         \
        return call;                                                          \
    }
LEVEL_SWEEP(level32_plain, level_sweep32(vals, masks, count, neg, shift, 0, threshold, out))
LEVEL_SWEEP(level32_heavy, level_sweep32(vals, masks, count, neg, shift, 1, threshold, out))
LEVEL_SWEEP(level16_plain, level_sweep(vals, masks, count, neg, shift, 0, threshold, out, 1))
LEVEL_SWEEP(level16_heavy, level_sweep(vals, masks, count, neg, shift, 1, threshold, out, 1))
LEVEL_SWEEP(level64_plain, level_sweep(vals, masks, count, neg, shift, 0, threshold, out, 0))
LEVEL_SWEEP(level64_heavy, level_sweep(vals, masks, count, neg, shift, 1, threshold, out, 0))

#if defined(__x86_64__)
#include <immintrin.h>

/* The AVX-512F sweep of an int32 level (k <= 15) over count masks, count a
   multiple of 16, all of popcount k = popcount(masks[0]) (count > 0).  Each
   group of 16 masks, one per int32 lane, runs exactly k steps, with no loop
   whose trip count depends on the data: a step takes each lane's lowest
   remaining bit (rest & -rest), gathers the 16 parents vals[m ^ low] in one
   _mm512_i32gather_epi32, negates those of the lanes whose bit is in neg
   and adds all 16 to the lanes' sums.  Each sum is then the scalar sweep's
   plus - minus, with every partial sum inside the same bound; it is ORed
   into the sweep's differences, shifted arithmetically (_mm512_srai_epi32)
   and written back in one scatter; the 16 masks of a group are distinct, so
   no two lanes write one value.  With heavy set, the lanes whose |value|
   reaches threshold store their masks, widened to int64 and in lane order,
   with one compress-store per eight lanes, so out keeps the order of
   masks. */
static inline __attribute__((always_inline, target("avx512f"))) swept
gather_sweep32(int32_t *vals, const uint32_t *masks, int64_t count, uint64_t neg, int64_t shift,
               const int heavy, int64_t threshold, int64_t *restrict out)
{
    const int k = __builtin_popcount(masks[0]);
    const __m512i minus = _mm512_set1_epi32((int32_t)neg), least = _mm512_set1_epi32((int32_t)threshold);
    const __m512i zero = _mm512_setzero_si512();
    __m512i diffs = zero;
    swept done = {0, 0};
    for (int64_t j = 0; j < count; j += 16) {
        __m512i m = _mm512_loadu_si512(masks + j);
        __m512i rest = m, acc = zero;
        for (int step = 0; step < k; step++) {
            __m512i low = _mm512_and_si512(rest, _mm512_sub_epi32(zero, rest));
            __m512i parent = _mm512_i32gather_epi32(_mm512_xor_si512(m, low), vals, 4);
            __mmask16 sub = _mm512_test_epi32_mask(low, minus);
            acc = _mm512_add_epi32(acc, _mm512_mask_sub_epi32(parent, sub, zero, parent));
            rest = _mm512_xor_si512(rest, low);
        }
        diffs = _mm512_or_si512(diffs, acc);
        acc = _mm512_srai_epi32(acc, (unsigned)shift);
        _mm512_i32scatter_epi32(vals, m, acc, 4);
        if (heavy) {
            __mmask16 big = _mm512_cmpge_epi32_mask(_mm512_abs_epi32(acc), least);
            __mmask8 low8 = (__mmask8)big, high8 = (__mmask8)(big >> 8);
            _mm512_mask_compressstoreu_epi64(out + done.found, low8,
                                             _mm512_cvtepu32_epi64(_mm512_castsi512_si256(m)));
            done.found += __builtin_popcount(low8);
            _mm512_mask_compressstoreu_epi64(out + done.found, high8,
                                             _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(m, 1)));
            done.found += __builtin_popcount(high8);
        }
    }
    done.diffs = (uint32_t)_mm512_reduce_or_epi32(diffs);
    return done;
}

/* The AVX-512F sweep of an int64 level (k >= 16), like gather_sweep32 but
   eight masks, one per int64 lane, a group, count a multiple of 8: each step
   gathers the 8 parents in one _mm512_i64gather_epi64, or, from the int32
   level 15 when narrow is set (k = 16), in one _mm512_i64gather_epi32
   sign-extended to int64; the sums are shifted with _mm512_srai_epi64, and
   the heavy lanes' masks stored with one compress-store. */
static inline __attribute__((always_inline, target("avx512f"))) swept
gather_sweep(int64_t *vals, const uint32_t *masks, int64_t count, uint64_t neg, int64_t shift,
             const int heavy, int64_t threshold, int64_t *restrict out, const int narrow)
{
    const int k = __builtin_popcount(masks[0]);
    const __m512i minus = _mm512_set1_epi64((int64_t)neg), least = _mm512_set1_epi64(threshold);
    const __m512i zero = _mm512_setzero_si512();
    __m512i diffs = zero;
    swept done = {0, 0};
    for (int64_t j = 0; j < count; j += 8) {
        __m512i m = _mm512_cvtepu32_epi64(_mm256_loadu_si256((const __m256i *)(masks + j)));
        __m512i rest = m, acc = zero;
        for (int step = 0; step < k; step++) {
            __m512i low = _mm512_and_si512(rest, _mm512_sub_epi64(zero, rest));
            __m512i at = _mm512_xor_si512(m, low);
            __m512i parent = narrow ? _mm512_cvtepi32_epi64(_mm512_i64gather_epi32(at, vals, 4))
                                    : _mm512_i64gather_epi64(at, vals, 8);
            __mmask8 sub = _mm512_test_epi64_mask(low, minus);
            acc = _mm512_add_epi64(acc, _mm512_mask_sub_epi64(parent, sub, zero, parent));
            rest = _mm512_xor_si512(rest, low);
        }
        diffs = _mm512_or_si512(diffs, acc);
        acc = _mm512_srai_epi64(acc, (unsigned)shift);
        _mm512_i64scatter_epi64(vals, m, acc, 8);
        if (heavy) {
            __mmask8 big = _mm512_cmpge_epi64_mask(_mm512_abs_epi64(acc), least);
            _mm512_mask_compressstoreu_epi64(out + done.found, big, m);
            done.found += __builtin_popcount(big);
        }
    }
    done.diffs = (uint64_t)_mm512_reduce_or_epi64(diffs);
    return done;
}

/* Like the scalar sweeps, each on its own cache line. */
#define GATHER_SWEEP(name, call)                                                    \
    static __attribute__((noinline, aligned(64), target("avx512f"))) swept          \
    name(void *vals, const uint32_t *masks, int64_t count, uint64_t neg,            \
         int64_t shift, int64_t threshold, int64_t *out)                            \
    {                                                                               \
        return call;                                                                \
    }
GATHER_SWEEP(gather32_plain, gather_sweep32(vals, masks, count, neg, shift, 0, threshold, out))
GATHER_SWEEP(gather32_heavy, gather_sweep32(vals, masks, count, neg, shift, 1, threshold, out))
GATHER_SWEEP(gather16_plain, gather_sweep(vals, masks, count, neg, shift, 0, threshold, out, 1))
GATHER_SWEEP(gather16_heavy, gather_sweep(vals, masks, count, neg, shift, 1, threshold, out, 1))
GATHER_SWEEP(gather64_plain, gather_sweep(vals, masks, count, neg, shift, 0, threshold, out, 0))
GATHER_SWEEP(gather64_heavy, gather_sweep(vals, masks, count, neg, shift, 1, threshold, out, 0))

/* The file's one run-time CPU check (gcc's): whether the host runs the
   AVX-512 sweeps, add_level's with AVX-512F and, with bytes set, those of
   glynn and glynn_cofactors, which also need BW for their int8 and int16
   lanes and DQ for vpmullq. */
static int host_has_avx512(int bytes)
{
    return __builtin_cpu_supports("avx512f") &&
           (!bytes || (__builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512dq")));
}
#endif

int64_t add_level(void *vals, const uint32_t *masks, int64_t count, const int8_t *row, int64_t n,
                  int64_t shift, int64_t *t, int64_t *out)
{
    uint64_t neg = 0;
    for (int64_t i = 0; i < n; i++)
        if (row[i] == -1)
            neg |= (uint64_t)1 << i;
        else if (row[i] != 1)
            return i + 1;
    /* the level's width: 0 for int32, 1 for level 16 (int32 parents), 2 for int64 */
    const int k = __builtin_popcount(masks[0]), width = (k > NARROW_MAX_K) + (k > NARROW_MAX_K + 1);
    static const sweep_fn scalar[3][2] = {
        {level32_plain, level32_heavy}, {level16_plain, level16_heavy}, {level64_plain, level64_heavy}};
    const int64_t threshold = t ? *t : 0;
    int64_t head = 0;
    swept vector = {0, 0}, rest;
#if defined(__x86_64__)
    static const sweep_fn gather[3][2] = {
        {gather32_plain, gather32_heavy}, {gather16_plain, gather16_heavy}, {gather64_plain, gather64_heavy}};
    const int64_t lanes = width ? 8 : 16;
    if (count >= lanes && host_has_avx512(0)) {
        head = count & -lanes;
        vector = gather[width][t != NULL](vals, masks, head, neg, shift, threshold, out);
    }
#endif
    if (t) {
        rest = scalar[width][1](vals, masks + head, count - head, neg, shift, threshold, out + vector.found);
        *t = vector.found + rest.found;
    } else {
        rest = scalar[width][0](vals, masks + head, count - head, neg, shift, threshold, out);
    }
    return (vector.diffs | rest.diffs) & (((uint64_t)1 << shift) - 1) ? DROPPED_BIT : 0;
}

/* Sixteen int8 lanes of the Glynn sweep, moved or compared with 0 in one
   vector operation. */
typedef int8_t lanes16 __attribute__((vector_size(16)));

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

   The lanes are int8, in one 16-byte vector (lanes16) at the widths 8 and
   16 and two at 32, the least width that holds n, so every loop over them
   has a constant trip count; a lane j >= n holds 1 and never moves.  A
   column sum of B adds at most n + 1 <= 31 signs, so it fits int8
   (31 < 2**7) and halving it, since it is even, is an exact shift; a lane is
   then at most 15 in absolute value at n <= 30, and so is every lane a step
   reaches, each being some delta's s_j / 2.  A step is one vector add per
   vector.

   A lane at 0 makes the step's product 0, so that step adds exactly 0 to
   the total: at 16 and 32 lanes each step compares its lanes with 0 and,
   if one is 0, goes on to the next step without multiplying.  The lanes of
   a random sign matrix are 0 in most steps (a half-sum of 16 signs is 0
   with probability C(16, 8) / 2**16 = 0.20).  At 8 lanes the sweep always
   multiplies and a lane at 0 gives a product of 0: a lane there is 0 with
   probability about 0.27, so the branch of a skip mispredicts often, and
   with it n = 8 ran 13% and 7 x 6 cofactor blocks 45% slower.  A host with
   AVX-512BW and DQ runs this sweep only past n = 20: glynn gives
   1 <= n <= 20 and glynn_cofactors every block to vector_sweep, which
   skips nothing.

   A product that runs reads the lanes sign-extended into unsigned words,
   and every step is a ring operation on those words, which wrap and have
   no undefined overflow, so the total is exact modulo 2**64 (n <= 20) or
   2**128 (n > 20), and its signed reading is exact while |total| stays
   below 2**63 or 2**127: |Per| <= 19! < 2**63 at odd n <= 19 and
   |Per / 2| <= 20! / 2 < 2**63 at even n <= 20, and every total through
   n = 30 is below 30! / 2 < 2**107.  Each product runs as four independent
   chains, p[k] over the lanes j = k (mod 4).  A chain has at most 8 lanes
   of at most 15, so in 128 bits p[0] * p[1] and p[2] * p[3] are exact in
   int64 (15**16 < 2**63), and their product is one exact signed
   64 x 64 -> 128 multiply.

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
   had over it; this runs before a step is skipped, and a skipped step
   leaves the total as adding 0 would.  Row 0 never flips, so its
   accumulator is the total; after the last step only delta_{n-1} is -1.
   Every final accumulator is at most 2 * 12! < 2**63, so the wrapping sums
   are exact for 1 <= n <= 13. */
static inline __attribute__((always_inline)) void
glynn_sweep(const int8_t *mats, int64_t count, int64_t n, const int lanes, const int wide,
            const int cofactors, int64_t *out)
{
    const int64_t cols = n - cofactors;
    const int vecs = lanes > 16 ? 2 : 1, skip = lanes > 8;
    lanes16 keep[2], pad[2];  /* keep: -1 in the lanes j < cols; pad: 1 in the others */
    for (int j = 0; j < 32; j++) {
        keep[j / 16][j % 16] = -(j < cols);
        pad[j / 16][j % 16] = j >= cols;
    }
    for (int64_t b = 0; b < count; b++) {
        /* the block and 32 zero bytes past it, so each row is read as whole
           vectors and its lanes j >= cols are masked off */
        int8_t a[30 * 30 + 32];
        memcpy(a, mats + b * n * cols, n * cols);
        memset(a + n * cols, 0, 32);
        /* step[1][i - 1] is what delta_i going from +1 to -1 adds to the
           lanes, step[0][i - 1] what going back adds */
        lanes16 step[2][29][2], sums[2];
        memcpy(sums, a, vecs * sizeof *sums);
        for (int v = 0; v < vecs; v++) {
            sums[v] &= keep[v];
            if (n % 2)
                sums[v] += sums[v];  /* row 0 once more at odd n */
        }
        for (int64_t i = 1; i < n; i++) {
            lanes16 *row = step[0][i - 1];
            memcpy(row, a + i * cols, vecs * sizeof *row);
            for (int v = 0; v < vecs; v++) {
                row[v] &= keep[v];
                step[1][i - 1][v] = -row[v];
                sums[v] += row[v];
            }
        }
        for (int v = 0; v < vecs; v++)
            sums[v] = (sums[v] >> 1) + pad[v];
        uint64_t total = 0, cof[13] = {0}, mark[13] = {0};
        unsigned __int128 total128 = 0;
        for (uint64_t s = 0; s >> (n - 1) == 0; s++) {
            if (s) {
                int i = __builtin_ctzll(s);
                const lanes16 *d = step[(s ^ s >> 1) >> i & 1][i];
                for (int v = 0; v < vecs; v++)
                    sums[v] += d[v];
                if (cofactors) {
                    /* the terms since delta_{i+1} last flipped had its old
                       sign: +1 if it now goes to -1 */
                    cof[i + 1] += (s ^ s >> 1) >> i & 1 ? total - mark[i + 1]
                                                        : mark[i + 1] - total;
                    mark[i + 1] = total;
                }
            }
            if (skip) {  /* a lane at 0: this step adds 0 */
                lanes16 zero = sums[0] == 0;
                if (vecs == 2)
                    zero |= sums[1] == 0;
                uint64_t word[2];
                memcpy(word, &zero, sizeof word);
                if (word[0] | word[1])
                    continue;
            }
            /* four independent chains of multiplies, not one */
            uint64_t p[4] = {1, 1, 1, 1};
            int8_t lane[32];
            memcpy(lane, sums, vecs * sizeof *sums);
#pragma GCC unroll 32
            for (int j = 0; j < lanes; j++)
                p[j % 4] *= (uint64_t)lane[j];
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
   the sweeps slowed one another by 10-25%.  Only the widths past 8 lanes
   skip the steps with a lane at 0. */
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

#if defined(__x86_64__)
/* The product of each group of lanes = 8, 16 or 32 int8 lanes of x, in
   every int64 lane of its group, the lanes at most ceil(20/2) = 10 in
   absolute value: int8 pairs multiply to int16 (at most 10**2 < 2**15),
   int16 pairs to int32 in one vpmaddwd (10**4 < 2**31) and int32 pairs to
   int64 in one vpmuldq, which leaves each octet's product in its int64
   lane; then the two octets of each 16 lanes in one more vpmuldq, which
   takes each as a signed 32-bit operand (10**8 < 2**31: the bound that
   stops the vector sweep at n = 20), and the two 16-lane halves of a
   32-lane group in one vpmullq, which wraps modulo 2**64 like
   glynn_sweep's products. */
static inline __attribute__((always_inline, target("avx512f,avx512bw,avx512dq"))) __m512i
group_products(__m512i x, const int lanes)
{
    __m512i even = _mm512_srai_epi16(_mm512_slli_epi16(x, 8), 8), odd = _mm512_srai_epi16(x, 8);
    __m512i p = _mm512_mullo_epi16(even, odd);
    p = _mm512_madd_epi16(p, _mm512_srli_epi32(p, 16));
    p = _mm512_mul_epi32(p, _mm512_srli_epi64(p, 32));
    if (lanes == 8)
        return p;
    p = _mm512_mul_epi32(p, _mm512_shuffle_epi32(p, _MM_PERM_BADC));
    if (lanes == 32)
        p = _mm512_mullo_epi64(p, _mm512_permutex_epi64(p, _MM_SHUFFLE(1, 0, 3, 2)));
    return p;
}

/* glynn_sweep's formula, with or without cofactors, on a host with
   AVX-512BW and DQ: glynn at 1 <= n <= 20 and glynn_cofactors at every row
   count.  One 512-bit vector of int8 lanes holds 64 / lanes groups, group q
   in bytes q * lanes to q * lanes + lanes - 1, and each group runs one
   Gray-code walk of one block.  A block takes walks = 1, 2 or 4 adjacent
   groups; walk w of a block fixes the top log2(walks) deltas,
   delta_(steps+1+k) = -1 exactly when bit k of w is set, and steps over
   the other steps = n - 1 - log2(walks).  So a vector holds:
   - glynn at n <= 8: eight blocks of 8 lanes, one walk each;
   - glynn at n = 9-16: one block as four walks of 16 lanes;
   - glynn at n = 17-20: one block as two walks of 32 lanes;
   - glynn_cofactors: eight blocks of 8 lanes (at most 9 rows) or four of
     16 (10-13 rows), one walk each.
   The blocks of a call all have n rows, so every walk steps the same Gray
   code and one vpaddb steps them all (a block of several walks has at
   least 6 steps, at n = 9).  The lanes hold glynn_sweep's halved column
   sums of B, and 1 in each lane j >= cols: at most ceil(9/2) = 5 in
   absolute value with 8 lanes, ceil(13/2) = 7 with 16 in a cofactor block
   and ceil(20/2) = 10 otherwise.  Every step multiplies every group out
   (group_products) and adds the product to its group's int64 total or
   subtracts it by the step's parity, the steps taken two at a time; a lane
   at 0 makes its group's product 0, so no step is tested or skipped.  A
   block's total is the sum of its walks' totals, each times prod_k delta_k
   over the walk's fixed deltas.  Every sum wraps modulo 2**64 and the
   values out are glynn_sweep's, so they are exact in the same bounds.

   With cofactors (one walk a block), no mark is kept.  delta_r is fixed
   between the steps that flip it, so with T the running total when a flip
   happens, d_old the sign that the flip ends and d_r the sign after the
   last step, row r's accumulator, sum over steps of sign * delta_r *
   product, is
       d_r * T_end + 2 * sum over the flips of row r of d_old * T.
   So a flip of delta_r adds T to flips[1][r - 1] when it goes from +1 to
   -1 and to flips[0][r - 1] when it goes back, one int64 vector per row
   with one lane per block (both lanes of a 16-lane block); after the last
   step d_r is -1 at r = n - 1 and +1 below it.

   Each vector's blocks are read through a copy followed by 16 zero bytes,
   at least what a row's lanes read past its block's last row: one block's
   row is broadcast to every walk, and one gather reads a row of each of
   several blocks.  The last vector of a count that is not a multiple of
   its blocks is padded with zero blocks, whose results are dropped. */
static inline __attribute__((always_inline, target("avx512f,avx512bw,avx512dq"))) void
vector_sweep(const int8_t *mats, int64_t count, int64_t n, const int lanes, const int walks,
             const int cofactors, int64_t *out)
{
    const int blocks = 64 / lanes / walks, fixed = __builtin_ctz(walks);
    const int64_t cols = n - cofactors, size = n * cols, steps = n - 1 - fixed;
    /* keep: the bytes of lanes j < cols; top[k]: the bytes of the walks whose
       bit k is set; at[q]: where int64 lane q's 8 bytes of a row start, from
       that row's first byte in block 0 */
    uint64_t keep = 0, top[2] = {0, 0};
    int64_t at[8];
    for (int byte = 0; byte < 64; byte++) {
        keep |= (uint64_t)(byte % lanes < cols) << byte;
        for (int k = 0; k < fixed; k++)
            top[k] |= (uint64_t)(byte / lanes % walks >> k & 1) << byte;
    }
    for (int q = 0; q < 8; q++)
        at[q] = q * 8 / lanes / walks * size + q % (lanes / 8) * 8;
    const __m512i zero = _mm512_setzero_si512(), sign = _mm512_set1_epi8(-128);
    const __m512i offsets = _mm512_loadu_si512(at);
    for (int64_t g = 0; g < count; g += blocks) {
        const int64_t filled = count - g < blocks ? count - g : blocks;
        int8_t a[4 * 13 * 12 + 16];
        memcpy(a, mats + g * size, filled * size);
        memset(a + filled * size, 0, (blocks - filled) * size + 16);
        /* step[1][i - 1] is what delta_i going from +1 to -1 adds to the
           lanes, step[0][i - 1] what going back adds */
        __m512i step[2][18], sums = zero;
        for (int64_t i = 0; i < n; i++) {
            const int8_t *from = a + i * cols;
            __m512i row = blocks > 1    ? _mm512_i64gather_epi64(offsets, from, 1)
                          : lanes == 16 ? _mm512_broadcast_i32x4(_mm_loadu_si128((const __m128i *)from))
                                        : _mm512_broadcast_i64x4(_mm256_loadu_si256((const __m256i *)from));
            row = _mm512_maskz_mov_epi8(keep, row);
            if (i == 0) {
                sums = n % 2 ? _mm512_add_epi8(row, row) : row;
            } else if (i <= steps) {
                step[0][i - 1] = row;
                step[1][i - 1] = _mm512_sub_epi8(zero, row);
                sums = _mm512_add_epi8(sums, row);
            } else {  /* a fixed delta, -1 in the walks whose bit i - steps - 1 is set */
                sums = _mm512_mask_sub_epi8(_mm512_add_epi8(sums, row), top[i - steps - 1], sums, row);
            }
        }
        /* halved: each sum is even, so a 16-bit logical shift moves a 0
           into the top bit of each low byte, where the sign goes back */
        sums = _mm512_or_si512(_mm512_srli_epi16(sums, 1), _mm512_and_si512(sums, sign));
        sums = _mm512_mask_blend_epi8(keep, _mm512_set1_epi8(1), sums);
        __m512i total = zero, flips[2][18];  /* the shape of step, so one index reads both */
        for (int64_t r = 0; cofactors && r < steps; r++)
            flips[0][r] = flips[1][r] = zero;
        for (uint64_t s = 0; s >> steps == 0; s += 2) {
            if (s) {
                int i = __builtin_ctzll(s), up = (s ^ s >> 1) >> i & 1;
                sums = _mm512_add_epi8(sums, step[up][i]);
                if (cofactors)
                    flips[up][i] = _mm512_add_epi64(flips[up][i], total);
            }
            total = _mm512_add_epi64(total, group_products(sums, lanes));
            if (walks == 1 && steps == 0)  /* n = 1, one walk: no step to take */
                break;
            /* step s + 1 flips delta_1, to -1 when bit 1 of s is clear */
            int up = ~s >> 1 & 1;
            sums = _mm512_add_epi8(sums, step[up][0]);
            if (cofactors)
                flips[up][0] = _mm512_add_epi64(flips[up][0], total);
            total = _mm512_sub_epi64(total, group_products(sums, lanes));
        }
        uint64_t each[8];
        if (!cofactors) {
            _mm512_storeu_si512(each, total);
            for (int64_t b = 0; b < filled; b++) {
                uint64_t sum = 0;
                for (int w = 0; w < walks; w++) {
                    uint64_t walk = each[(b * walks + w) * lanes / 8];
                    sum += __builtin_parity(w) ? -walk : walk;
                }
                int64_t per = (int64_t)sum * (2 - n % 2);
                out[2 * (g + b)] = per;
                out[2 * (g + b) + 1] = per < 0 ? -1 : 0;
            }
            continue;
        }
        for (int64_t r = 0; r < n; r++) {
            __m512i acc = total;
            if (r) {
                __m512i twice = _mm512_sub_epi64(flips[1][r - 1], flips[0][r - 1]);
                twice = _mm512_add_epi64(twice, twice);
                acc = r == n - 1 ? _mm512_sub_epi64(twice, total) : _mm512_add_epi64(twice, total);
            }
            _mm512_storeu_si512(each, acc);
            for (int64_t b = 0; b < filled; b++) {
                int64_t v = (int64_t)each[b * lanes / 8];
                out[(g + b) * n + r] = r && n % 2 ? v / 2 : v;
            }
        }
    }
}

/* Each route its own function, like glynn_sweep's widths. */
#define VECTOR_ROUTE(name, lanes, walks, cofactors)                                 \
    static __attribute__((noinline, target("avx512f,avx512bw,avx512dq"))) void      \
    name(const int8_t *mats, int64_t count, int64_t n, int64_t *out)                \
    {                                                                               \
        vector_sweep(mats, count, n, lanes, walks, cofactors, out);                 \
    }
VECTOR_ROUTE(vector_8, 8, 1, 0)
VECTOR_ROUTE(vector_16, 16, 4, 0)
VECTOR_ROUTE(vector_32, 32, 2, 0)
VECTOR_ROUTE(vector_cofactors_8, 8, 1, 1)
VECTOR_ROUTE(vector_cofactors_16, 16, 1, 1)
#endif

void glynn(const int8_t *mats, int64_t count, int64_t n, int64_t *out)
{
#if defined(__x86_64__)
    if (n > 0 && n <= 20 && host_has_avx512(1)) {
        (n <= 8 ? vector_8 : n <= 16 ? vector_16 : vector_32)(mats, count, n, out);
        return;
    }
#endif
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
   fewest lanes that hold rows - 1 columns: eight blocks of 8 lanes or four
   of 16 to a 512-bit vector on a host with AVX-512BW and DQ, and one block
   at a time on the others. */
void glynn_cofactors(const int8_t *mats, int64_t count, int64_t rows, int64_t *out)
{
#if defined(__x86_64__)
    if (host_has_avx512(1)) {
        (rows <= 9 ? vector_cofactors_8 : vector_cofactors_16)(mats, count, rows, out);
        return;
    }
#endif
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

/* Each way to give rows row .. stop-1 distinct columns from free adds 1 to
   tally[2 * f + p], where f is the set of columns it leaves free and p the
   parity of the -1 entries it picks, together with the parity carried in.
   Depth first: each row takes a free column in turn, and the last row's
   choices are tallied in place, with no call. */
static void naive_tally(const uint64_t *neg, int64_t row, int64_t stop, uint64_t free,
                        uint64_t parity, int64_t *tally)
{
    if (row == stop) {
        tally[2 * free + parity]++;
        return;
    }
    for (uint64_t rest = free; rest; rest &= rest - 1) {
        uint64_t col = rest & -rest, odd = parity ^ !!(neg[row] & col);
        if (row + 1 == stop)
            tally[2 * (free ^ col) + odd]++;
        else
            naive_tally(neg, row + 1, stop, free ^ col, odd, tally);
    }
}

/* The number of permutations sigma of {0 .. n-1} that pick an odd number of
   -1 entries, where neg[r] is the mask of row r's -1 columns
   (permlab.engines.permanent_naive, which returns n! - 2 * odd).

   By the Laplace expansion of the permanent along its last r = min(n, 4)
   rows (H. Minc, "Permanents", 1978), each permutation is an arrangement of
   rows 0 .. n-r-1 that leaves a set F of r columns free, followed by one of
   the r! arrangements of the last r rows onto F; it is odd when exactly one
   of the two parts picks an odd number of -1 entries.  So
       odd = sum over F of tally[F][0] * odd(F) + tally[F][1] * (r! - odd(F)),
   where tally[F][p] counts the arrangements of the first n - r rows that
   leave F with parity p, and odd(F) the odd arrangements of the last r rows
   onto F.  One depth-first walk (naive_tally) fills tally, stored as
   tally[2 * F + p]; the same walk, started at row n - r on each F with a
   nonzero tally, counts odd(F) and r! - odd(F) from the definition into the
   pair last (every column is taken by then, so they land at F = 0).  So the
   last rows' completions are walked once per column set, not once per
   prefix.  At n <= 4 the first walk is empty: it sets tally[F][0] = 1 for F
   = every column.  The walk shares no code with the lattice, Glynn or Ryser
   kernels, so the naive engine stays an independent oracle for them.

   1 <= n <= NAIVE_MAX_N = 10 (the caller's cap), so tally takes 2**10 x 2
   int64, 16 KiB, on the stack, and the recursion is at most n deep.  Exact
   in int64: tally[F][p] <= (n-r)! and odd(F) <= r!, so each term is at most
   (n-r)! * r! and, since the tallies add up to n! / r!, the sum is at most
   n! <= 10! < 2**22. */
#define NAIVE_MAX_N 10

int64_t naive_odd(const uint64_t *neg, int64_t n)
{
    int64_t tally[2 << NAIVE_MAX_N];
    int64_t r = n < 4 ? n : 4, odd = 0;
    uint64_t every = ((uint64_t)1 << n) - 1;
    memset(tally, 0, sizeof(tally[0]) << (n + 1));
    naive_tally(neg, 0, n - r, every, 0, tally);
    for (uint64_t f = 0; f <= every; f++) {
        int64_t even_first = tally[2 * f], odd_first = tally[2 * f + 1];
        if (!even_first && !odd_first)
            continue;
        int64_t last[2] = {0, 0};
        naive_tally(neg, n - r, n, f, 0, last);
        odd += even_first * last[1] + odd_first * last[0];
    }
    return odd;
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
